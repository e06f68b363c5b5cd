"""The shipped specs, evaluated on the committed ``report.json``.

The committed report is the reproduction's reference output.  Every
figure's spec must still name the claims that report holds, in order;
every claim that reads only table rows must give the committed verdict
and observed text when re-evaluated on the committed rows; and the
provenance config hash (which also keys result-cache comparisons)
must match.  A refactor of the expectation vocabulary that moves any
of these shows here in well under a second, without running a sweep.
So does a change to the paper score: each committed ``paper_score``
must equal a fresh score of the committed rows, and its ``mre`` must
equal the benchmark's own ``bench/stats.py::paper_mre``.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.experiments import QUICK, FigureResult
from repro.obs.expect import EvalContext, paper_score
from repro.obs.expect.reproduce import provenance
from repro.obs.expectations import SPECS, reference_curves

ROOT = Path(__file__).resolve().parents[2]
REPORT = json.loads((ROOT / "report.json").read_text())
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


@pytest.mark.parametrize("figure", list(SECTIONS))
def test_committed_paper_score_rescores(figure):
    section = SECTIONS[figure]
    fresh = paper_score(
        section["headers"], section["rows"], reference_curves(figure)
    )
    assert fresh == section["paper_score"]


@pytest.mark.parametrize("figure", list(SECTIONS))
def test_every_paper_point_is_scored(figure):
    # A curve column, mode or x the table lacks would drop out of the
    # score silently; at quick scale every nonzero point must match
    # (and a figure without curves, ``model``, scores null).
    nonzero = [
        y
        for by_mode in reference_curves(figure).values()
        for points in by_mode.values()
        for _x, y in points
        if y != 0
    ]
    score = SECTIONS[figure]["paper_score"]
    assert (score["points"] if score else 0) == len(nonzero)


def test_figure_mre_equals_the_benchmark_paper_mre():
    # The benchmark scores its runs with its own copy of the metric;
    # the two copies must agree bit for bit on every committed section.
    spec = importlib.util.spec_from_file_location(
        "bench_stats", ROOT / "bench" / "stats.py"
    )
    stats = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(stats)
    for figure, section in SECTIONS.items():
        score = section["paper_score"]
        mre = stats.paper_mre(
            section["headers"], section["rows"], reference_curves(figure)
        )
        assert mre == (score["mre"] if score else None), figure
