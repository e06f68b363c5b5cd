"""``repro reproduce`` / ``repro diff``: report generation and gating."""

import json

import pytest

from repro.cli import main
from repro.context import current_context
from repro.experiments import FigureResult, RunScale
from repro.obs.expect import FigureSpec, is_zero, wins
from repro.obs.expect.diffing import DiffResult, diff_documents
from repro.obs.expect.reproduce import (
    REPORT_SCHEMA,
    default_runners,
    provenance,
    run_reproduce,
)

MICRO = RunScale(
    name="micro",
    warmup_ns=1_000_000.0,
    measure_ns=2_000_000.0,
    latency_measure_ns=4_000_000.0,
)


@pytest.fixture()
def chdir_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def stub_runner(scale, seed=1, jobs=None, chunk=None):
    result = FigureResult("Fig S", "stub", ["mode", "x", "gbps", "drop%"])
    result.rows = [
        ["off", 1, 100.0, 0.0],
        ["strict", 1, 60.0, 2.0],
    ]
    return result


GOOD_SPEC = FigureSpec(
    figure="stub",
    title="stub figure",
    expectations=(
        is_zero("drop%", "off", claim="off never drops", paper="0"),
        wins("off", "strict", "gbps", claim="off beats strict"),
    ),
)

BROKEN_SPEC = FigureSpec(
    figure="stub",
    title="stub figure",
    expectations=(
        is_zero("drop%", "strict", claim="strict never drops", paper="0"),
    ),
)


def phased_runner(scale, seed=1, jobs=None, chunk=None):
    """A stub figure whose one cell opens a real metrics phase."""
    registry = current_context().registry
    registry.begin_phase("Fig S fns x=1")
    registry.scope("iommu").counter("stale", lambda: 0)
    return stub_runner(scale)


def selector_spec(phase_contains):
    return FigureSpec(
        figure="stub",
        title="stub figure",
        expectations=(
            is_zero(metric="iommu.stale", phase_contains=phase_contains,
                    claim="fns never reads a stale translation"),
        ),
    )


def reproduce(tmp_path, spec, runner=stub_runner, **kwargs):
    return run_reproduce(
        ["stub"],
        scale=MICRO,
        report_path=str(tmp_path / "REPORT.md"),
        json_path=str(tmp_path / "report.json"),
        runners={"stub": runner},
        specs={"stub": spec},
        echo=lambda _: None,
        **kwargs,
    )


class TestRunReproduce:
    def test_passing_claims_exit_zero_and_write_reports(self, tmp_path):
        assert reproduce(tmp_path, GOOD_SPEC) == 0
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["schema"] == REPORT_SCHEMA
        assert doc["summary"] == {
            "claims": 2, "passed": 2, "failed": 0, "skipped": 0,
        }
        figure = doc["figures"][0]
        assert figure["figure"] == "stub"
        assert figure["claims"][0]["status"] == "pass"
        assert figure["rows"][0] == ["off", 1, 100.0, 0.0]

        md = (tmp_path / "REPORT.md").read_text()
        assert "paper claims vs this reproduction" in md
        assert "✓" in md and "✗" not in md
        assert "off beats strict" in md
        assert "2/2 pass" in md

    def test_provenance_stamped(self, tmp_path):
        reproduce(tmp_path, GOOD_SPEC, seed=7)
        stamped = json.loads((tmp_path / "report.json").read_text())[
            "provenance"
        ]
        assert set(stamped) == {
            "git_sha", "git_dirty", "scale", "seed", "figures",
            "config_hash",
        }
        assert stamped["git_dirty"] in (True, False, None)
        assert stamped["scale"] == "micro"
        assert stamped["seed"] == 7
        assert stamped["figures"] == ["stub"]
        assert len(stamped["config_hash"]) == 16

    def test_broken_spec_exits_nonzero(self, tmp_path):
        # The acceptance check: deliberately violate a claim and the
        # reproduce gate must fail while still writing both reports.
        assert reproduce(tmp_path, BROKEN_SPEC) == 1
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["summary"]["failed"] == 1
        assert "✗" in (tmp_path / "REPORT.md").read_text()

    @pytest.mark.parametrize("selector, status, observed", [
        pytest.param(
            " fns ", 0, "sum(iommu.stale) over 1 phase(s) = 0", id="match"
        ),
        # A typo'd selector matches no phase the run produced: the
        # claim fails as a spec error rather than skipping forever.
        pytest.param(
            " fnss ", 1, "spec error: no phase label contains ' fnss '",
            id="typo",
        ),
    ])
    def test_phase_selector_is_checked_against_real_labels(
        self, tmp_path, selector, status, observed
    ):
        assert reproduce(
            tmp_path, selector_spec(selector), phased_runner
        ) == status
        [claim] = json.loads((tmp_path / "report.json").read_text())[
            "figures"
        ][0]["claims"]
        assert claim["observed"] == observed

    def test_figure_scored_against_its_paper_curves(self, tmp_path):
        # Under a key with curves (fig7 gbps: off 99.0, strict 80.0 at
        # 5 flows), the section carries its score and REPORT.md prints
        # it; a key without curves scores null.
        def scored_runner(scale, seed=1, jobs=None, chunk=None):
            result = FigureResult("Fig S", "stub", ["mode", "flows", "gbps"])
            result.rows = [["off", 5, 99.0], ["strict", 5, 60.0]]
            return result

        spec = FigureSpec(
            "fig7", "stub", (wins("off", "strict", "gbps", claim="off wins"),)
        )
        status = run_reproduce(
            ["fig7", "stub"],
            scale=MICRO,
            report_path=str(tmp_path / "REPORT.md"),
            json_path=str(tmp_path / "report.json"),
            runners={"fig7": scored_runner, "stub": stub_runner},
            specs={"fig7": spec, "stub": GOOD_SPEC},
            echo=lambda _: None,
        )
        assert status == 0
        scored, unscored = json.loads(
            (tmp_path / "report.json").read_text()
        )["figures"]
        assert scored["paper_score"] == {
            "mre": 0.125,
            "points": 2,
            "series": {"gbps": {"off": 0.0, "strict": 0.25}},
        }
        assert unscored["paper_score"] is None
        md = (tmp_path / "REPORT.md").read_text()
        assert "mean relative error **0.1250** over 2 points" in md
        assert "| gbps | strict | 0.2500 |" in md
        assert "Paper score: none" in md

    def test_unknown_figure_exits_two(self, tmp_path):
        # An empty selection is no figure either, not "every figure".
        for figures in (["nope"], []):
            status = run_reproduce(
                figures,
                scale=MICRO,
                report_path=str(tmp_path / "R.md"),
                json_path=str(tmp_path / "r.json"),
                runners={"stub": stub_runner},
                specs={"stub": GOOD_SPEC},
                echo=lambda _: None,
            )
            assert status == 2
            assert list(tmp_path.iterdir()) == []

    def test_config_hash_tracks_spec_and_seed(self):
        base = provenance(["stub"], MICRO, 1, {"stub": GOOD_SPEC})
        reseeded = provenance(["stub"], MICRO, 2, {"stub": GOOD_SPEC})
        respecced = provenance(["stub"], MICRO, 1, {"stub": BROKEN_SPEC})
        assert base["config_hash"] != reseeded["config_hash"]
        assert base["config_hash"] != respecced["config_hash"]
        again = provenance(["stub"], MICRO, 1, {"stub": GOOD_SPEC})
        assert base["config_hash"] == again["config_hash"]

    def test_default_runners_cover_all_specs(self):
        from repro.obs.expectations import SPECS

        assert set(default_runners()) == set(SPECS)


class TestReproduceCli:
    def test_cli_runs_figure_and_writes_reports(self, chdir_tmp, capsys):
        status = main(
            [
                "reproduce",
                "--figures",
                "fig12",
                "--out",
                "R.md",
                "--json",
                "r.json",
            ]
        )
        assert status == 0
        out = capsys.readouterr().out
        assert "claims pass" in out
        doc = json.loads((chdir_tmp / "r.json").read_text())
        assert doc["provenance"]["figures"] == ["fig12"]
        assert doc["summary"]["failed"] == 0
        assert "Fig 12" in (chdir_tmp / "R.md").read_text()

    def test_cli_rejects_unknown_figure(self, chdir_tmp):
        assert main(["reproduce", "--figures", "fig99"]) == 2


def make_report_doc(status="pass"):
    return {
        "schema": REPORT_SCHEMA,
        "provenance": {"config_hash": "abcd"},
        "figures": [
            {
                "figure": "stub",
                "claims": [
                    {"claim": "off never drops", "status": status},
                    {"claim": "off beats strict", "status": "pass"},
                ],
            }
        ],
    }


class TestDiffDocuments:
    def test_identical_reports_ok(self):
        result = diff_documents(make_report_doc(), make_report_doc())
        assert result.ok
        assert "no differences" in result.format()

    def test_pass_to_fail_is_regression(self):
        result = diff_documents(
            make_report_doc("pass"), make_report_doc("fail")
        )
        assert not result.ok
        assert any("pass -> fail" in r for r in result.regressions)

    def test_fail_to_pass_is_improvement(self):
        result = diff_documents(
            make_report_doc("fail"), make_report_doc("pass")
        )
        assert result.ok
        assert any("fail -> pass" in i for i in result.improvements)

    def test_disappeared_claim_is_regression(self):
        shrunk = make_report_doc()
        shrunk["figures"][0]["claims"].pop()
        result = diff_documents(make_report_doc(), shrunk)
        assert any("disappeared" in r for r in result.regressions)

    def test_config_hash_change_is_noted(self):
        other = make_report_doc()
        other["provenance"]["config_hash"] = "ffff"
        result = diff_documents(make_report_doc(), other)
        assert result.ok
        assert any("config hash changed" in n for n in result.notes)

    def test_schema_mismatch_raises(self):
        with pytest.raises(ValueError, match="schema mismatch"):
            diff_documents(make_report_doc(), {"schema": "repro.bench/1"})
        with pytest.raises(ValueError, match="unsupported"):
            diff_documents({"schema": "x/1"}, {"schema": "x/1"})


class TestDiffCli:
    def write(self, path, doc):
        path.write_text(json.dumps(doc))
        return str(path)

    def test_ok_diff_exits_zero(self, tmp_path, capsys):
        old = self.write(tmp_path / "old.json", make_report_doc())
        new = self.write(tmp_path / "new.json", make_report_doc())
        assert main(["diff", old, new]) == 0
        assert "OK" in capsys.readouterr().out

    def test_regression_exits_one(self, tmp_path, capsys):
        old = self.write(tmp_path / "old.json", make_report_doc("pass"))
        new = self.write(tmp_path / "new.json", make_report_doc("fail"))
        assert main(["diff", old, new]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_unreadable_or_mismatched_inputs_exit_two(
        self, tmp_path, capsys
    ):
        good = self.write(tmp_path / "good.json", make_report_doc())
        assert main(["diff", good, str(tmp_path / "absent.json")]) == 2
        bench_doc = {"schema": "repro.bench/1", "benchmarks": []}
        bench = self.write(tmp_path / "bench.json", bench_doc)
        assert main(["diff", good, bench]) == 2
        # Malformed reports are unusable input (2), not a regression (1).
        no_provenance = make_report_doc()
        no_provenance["provenance"] = None
        null_claim = make_report_doc()
        null_claim["figures"][0]["claims"][0] = None
        for name, doc in (
            ("null_provenance", no_provenance),
            ("null_claim", null_claim),
        ):
            bad = self.write(tmp_path / f"{name}.json", doc)
            assert main(["diff", good, bad]) == 2, name
            assert main(["diff", bad, good]) == 2, name
        capsys.readouterr()
        # Legacy bench documents are no longer diffable at all.
        assert main(["diff", bench, bench]) == 2
        assert "unsupported schema" in capsys.readouterr().err


def test_diff_result_format_counts():
    result = DiffResult(regressions=["a", "b"])
    text = result.format()
    assert "FAIL" in text and "2 regression(s)" in text


class TestDiffCacheTemperature:
    def stamped(self, cached, computed):
        doc = make_report_doc()
        doc["provenance"]["cache"] = {
            "cells_cached": cached,
            "cells_computed": computed,
        }
        return doc

    def test_warm_vs_cold_is_noted(self):
        result = diff_documents(
            self.stamped(0, 10), self.stamped(10, 0)
        )
        assert result.ok
        assert any(
            "cache temperature differs: cold -> warm" in n
            for n in result.notes
        )

    def test_uncached_vs_warm_is_noted(self):
        result = diff_documents(make_report_doc(), self.stamped(10, 0))
        assert any("uncached -> warm" in n for n in result.notes)

    def test_mixed_temperature_is_described(self):
        result = diff_documents(
            self.stamped(10, 0), self.stamped(7, 3)
        )
        assert any(
            "mixed (7 cached, 3 computed)" in n for n in result.notes
        )

    def test_same_temperature_stays_silent(self):
        result = diff_documents(self.stamped(10, 0), self.stamped(10, 0))
        assert not any("cache temperature" in n for n in result.notes)


class TestDirtySha:
    def test_dirty_worktree_marked_in_sha_note(self):
        old = make_report_doc()
        old["provenance"]["git_sha"] = "a" * 40
        new = make_report_doc()
        new["provenance"]["git_sha"] = "a" * 40
        new["provenance"]["git_dirty"] = True
        result = diff_documents(old, new)
        note = next(n for n in result.notes if "comparing git shas" in n)
        assert note.endswith("+dirty")
        assert "aaaaaaaaaaaa -> aaaaaaaaaaaa+dirty" in note
