"""The shipped specs, evaluated on the committed ``report.json``.

The committed report is the reproduction's reference output.  Every
figure's spec must still name the claims that report holds, in order;
every claim that reads only table rows must give the committed verdict
and observed text when re-evaluated on the committed rows; and the
provenance config hash (which also keys result-cache comparisons)
must match.  A refactor of the expectation vocabulary that moves any
of these shows here in well under a second, without running a sweep.
"""

import json
from pathlib import Path

import pytest

from repro.experiments import QUICK, FigureResult
from repro.obs.expect import EvalContext
from repro.obs.expect.reproduce import provenance
from repro.obs.expectations import SPECS

REPORT = json.loads(
    (Path(__file__).resolve().parents[2] / "report.json").read_text()
)
SECTIONS = {section["figure"]: section for section in REPORT["figures"]}


def _row_only(expectation) -> bool:
    return (
        getattr(expectation, "metric", None) is None
        and getattr(expectation, "derived", None) is None
    )


def test_every_committed_figure_has_a_spec():
    assert list(SECTIONS) == REPORT["provenance"]["figures"]
    assert set(SECTIONS) <= set(SPECS)


@pytest.mark.parametrize("figure", list(SECTIONS))
def test_spec_claims_match_committed(figure):
    committed = [
        (claim["kind"], claim["claim"], claim["paper"])
        for claim in SECTIONS[figure]["claims"]
    ]
    assert [
        (e.kind, e.claim, e.paper) for e in SPECS[figure].expectations
    ] == committed


@pytest.mark.parametrize("figure", list(SECTIONS))
def test_row_claims_reevaluate_to_committed(figure):
    section = SECTIONS[figure]
    result = FigureResult(
        section["figure_id"], section["title"], section["headers"]
    )
    result.rows = section["rows"]
    ctx = EvalContext(result=result)
    for expectation, claim in zip(
        SPECS[figure].expectations, section["claims"]
    ):
        if not _row_only(expectation):
            continue
        outcome = expectation.evaluate(ctx)
        assert (outcome.status, outcome.observed) == (
            claim["status"],
            claim["observed"],
        ), claim["claim"]


def test_row_only_claims_are_most_claims():
    expectations = [
        e for key in SECTIONS for e in SPECS[key].expectations
    ]
    assert len(expectations) == REPORT["summary"]["claims"] == 70
    assert sum(map(_row_only, expectations)) == 66


def test_config_hash_matches_committed():
    manifest = REPORT["provenance"]
    assert manifest["scale"] == QUICK.name
    fresh = provenance(manifest["figures"], QUICK, manifest["seed"], SPECS)
    assert fresh["config_hash"] == manifest["config_hash"]
