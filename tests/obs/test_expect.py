"""Unit tests for the expectation vocabulary and spec engine."""

import pytest

from repro.experiments import FigureResult
from repro.obs.expect import (
    FigureSpec,
    crossover_at,
    declines_with,
    equal,
    evaluate_figure,
    grows_with,
    is_zero,
    largest_class,
    paper_score,
    wins,
    within_band,
)
from repro.obs.expect.engine import EvalContext
from repro.obs.expectations import SPECS


def make_result():
    result = FigureResult(
        "Fig T", "test", ["mode", "x", "gbps", "drop%", "m1", "m2", "m3"]
    )
    result.rows = [
        ["off", 5, 100.0, 0.0, 0.0, 0.0, 0.0],
        ["off", 20, 99.0, 0.0, 0.0, 0.0, 0.0],
        ["strict", 5, 80.0, 1.0, 0.4, 0.4, 2.0],
        ["strict", 20, 40.0, 9.0, 0.6, 0.6, 3.5],
        ["fns", 5, 99.5, 0.0, 0.0, 0.0, 0.1],
        ["fns", 20, 98.5, 0.0, 0.0, 0.0, 0.1],
    ]
    return result


def run(expectation, result=None, metrics=None):
    ctx = EvalContext(result=result or make_result(), metrics=metrics)
    return expectation.evaluate(ctx)


class TestIsZero:
    def test_pass_and_fail(self):
        assert run(is_zero("drop%", "fns", claim="c")).passed
        assert run(is_zero("drop%", "strict", claim="c")).failed

    def test_tolerance(self):
        assert run(is_zero("m3", "fns", tol=0.2, claim="c")).passed
        assert run(is_zero("m3", "fns", tol=0.05, claim="c")).failed

    def test_at_restricts_rows(self):
        only5 = is_zero("drop%", "strict", at=(5,), tol=1.5, claim="c")
        assert run(only5).passed

    def test_requires_exactly_one_form(self):
        with pytest.raises(ValueError):
            is_zero(claim="c")
        with pytest.raises(ValueError):
            is_zero("drop%", metric="x.n", claim="c")

    def test_metric_form_sums_matching_phases(self):
        metrics = {
            "phases": [
                {"label": "Fig T fns x=5", "final": {"iommu.m1#2": 1.0}},
                {"label": "Fig T strict x=5", "final": {"iommu.m1": 50.0}},
            ]
        }
        claim = is_zero(
            metric="iommu.m1", phase_contains=" fns ", tol=2.0, claim="c"
        )
        assert run(claim, metrics=metrics).passed
        strict = is_zero(
            metric="iommu.m1", phase_contains=" strict ", tol=2.0, claim="c"
        )
        assert run(strict, metrics=metrics).failed

    def test_metric_form_skips_without_metrics(self):
        outcome = run(is_zero(metric="x.n", claim="c"))
        assert outcome.status == "skip"
        assert outcome.symbol == "–"

    def test_metric_form_spec_error_on_no_phase(self):
        outcome = run(
            is_zero(metric="x.n", phase_contains="nope", claim="c"),
            metrics={"phases": []},
        )
        assert outcome.failed
        assert "spec error" in outcome.observed


class TestEqual:
    def test_columns_equal(self):
        assert run(equal("m1", "m2", mode="strict", claim="c")).passed
        assert run(equal("m1", "m3", mode="strict", claim="c")).failed

    def test_between_two_sweep_points(self):
        near = equal(
            "gbps", mode="off", between=(5, 20), tol_abs=2.0, claim="c"
        )
        assert run(near).passed
        tight = equal(
            "gbps", mode="off", between=(5, 20), tol_abs=0.5, claim="c"
        )
        assert run(tight).failed

    def test_requires_exactly_one_form(self):
        with pytest.raises(ValueError):
            equal("m1", claim="c")
        with pytest.raises(ValueError):
            equal("m1", "m2", between=(5, 20), claim="c")


class TestTrends:
    def test_grows_and_declines(self):
        assert run(grows_with("drop%", "strict", factor=2.0, claim="c")).passed
        assert run(declines_with("gbps", "strict", factor=1.5, claim="c")).passed
        assert run(grows_with("gbps", "strict", claim="c")).failed

    def test_ratio_trend(self):
        # strict/off gbps: 0.8 -> 0.404, a declining relative trend.
        claim = declines_with("gbps", "strict", of="off", factor=1.5, claim="c")
        assert run(claim).passed

    def test_needs_two_points(self):
        one = FigureResult("F", "t", ["mode", "x", "gbps"])
        one.rows = [["off", 1, 5.0]]
        outcome = run(grows_with("gbps", "off", claim="c"), result=one)
        assert outcome.failed
        assert "spec error" in outcome.observed


class TestWins:
    def test_per_point_and_factor(self):
        assert run(wins("off", "strict", "gbps", claim="c")).passed
        assert run(wins("off", "strict", "gbps", by=2.0, claim="c")).failed

    def test_agg_max_compares_series_extremes(self):
        tail = wins("strict", "fns", "m3", by=10.0, agg="max", claim="c")
        assert run(tail).passed

    def test_rejects_unknown_agg(self):
        with pytest.raises(ValueError):
            wins("off", "strict", "gbps", agg="median", claim="c")


class TestWithinBand:
    def test_absolute_band(self):
        assert run(
            within_band("gbps", "off", lo=95.0, hi=101.0, claim="c")
        ).passed
        assert run(within_band("gbps", "off", hi=99.5, claim="c")).failed

    def test_relative_band(self):
        near_off = within_band("gbps", "fns", of="off", lo=0.9, hi=1.1, claim="c")
        assert run(near_off).passed
        assert run(
            within_band("gbps", "strict", of="off", lo=0.9, hi=1.1, claim="c")
        ).failed

    def test_slack_and_hi_min_loosen_upper_bound(self):
        # m3 fns/strict ratio is tiny; hi_min gives an absolute escape
        # hatch when hi*base rounds to ~0.
        claim = within_band(
            "m3", "fns", of="strict", hi=0.01, hi_min=0.2, claim="c"
        )
        assert run(claim).passed
        assert run(
            within_band("m3", "fns", of="strict", hi=0.01, claim="c")
        ).failed
        slack = within_band(
            "drop%", "fns", of="off", hi=3.0, slack=0.5, claim="c"
        )
        assert run(slack).passed  # base 0: bound is 0 + slack

    def test_derived_callable(self):
        result = make_result()
        result.raw["k"] = 42.0
        claim = within_band(
            derived=lambda r: r.raw["k"], label="k", lo=40.0, hi=45.0, claim="c"
        )
        assert run(claim, result=result).passed

    def test_requires_bounds_and_target(self):
        with pytest.raises(ValueError):
            within_band("gbps", claim="c")
        with pytest.raises(ValueError):
            within_band(claim="c")


class TestCrossoverAt:
    def test_crossover(self):
        # strict/off gbps ratio 0.8 at x=5, then 1.0 at x=20: below 0.9
        # up to 5 and crossing after it.
        crossing = make_result()
        crossing.rows[3] = ["strict", 20, 99.0, 9.0, 0.6, 0.6, 3.5]
        claim = crossover_at(
            "gbps", "strict", of="off", threshold=0.9, after=5, claim="c"
        )
        assert run(claim, result=crossing).passed
        # The stock result's ratio falls to 0.404 and never crosses ...
        assert run(claim).failed
        # ... and a threshold below the x=5 ratio fails the below check.
        assert run(
            crossover_at(
                "gbps", "strict", of="off", threshold=0.7, after=5,
                claim="c",
            ),
            result=crossing,
        ).failed

    def test_unorderable_x_is_spec_error(self):
        outcome = run(
            crossover_at(
                "gbps", "strict", of="off", threshold=0.9, after="a",
                claim="c",
            )
        )
        assert outcome.failed
        assert "spec error" in outcome.observed


class TestLargestClass:
    def test_dominant_column(self):
        claim = largest_class(
            "m3", among=("m1", "m2", "m3"), mode="strict", claim="c"
        )
        assert run(claim).passed
        assert run(
            largest_class("m1", among=("m1", "m3"), mode="strict", claim="c")
        ).failed

    def test_column_must_be_among(self):
        with pytest.raises(ValueError):
            largest_class("gbps", among=("m1", "m2"), claim="c")


class TestSpecErrors:
    def test_unknown_column_fails_with_spec_error(self):
        outcome = run(is_zero("nope", "off", claim="c"))
        assert outcome.failed
        assert "spec error" in outcome.observed

    def test_unknown_mode_fails_with_spec_error(self):
        outcome = run(is_zero("gbps", "iommu=pt", claim="c"))
        assert outcome.failed
        assert "no rows" in outcome.observed

    def test_missing_base_x_is_spec_error(self):
        lopsided = make_result()
        lopsided.rows = [r for r in lopsided.rows if r[:2] != ["off", 20]]
        outcome = run(
            declines_with("gbps", "strict", of="off", claim="c"),
            result=lopsided,
        )
        assert outcome.failed
        assert "spec error" in outcome.observed


class TestEngine:
    def spec(self):
        return FigureSpec(
            figure="figT",
            title="test figure",
            expectations=(
                is_zero("drop%", "fns", claim="fns never drops"),
                wins("off", "strict", "gbps", claim="off beats strict"),
                is_zero(metric="x.n", claim="metric claim"),
            ),
        )

    def test_evaluate_direct_spec(self):
        evaluation = evaluate_figure(self.spec(), make_result())
        assert evaluation.figure == "figT"
        counts = evaluation.counts()
        assert counts == {"claims": 3, "passed": 2, "failed": 0, "skipped": 1}
        assert evaluation.passed
        text = evaluation.format()
        assert "claims: figT" in text
        assert "2/3 claims pass, 1 skipped" in text

    def test_failures_listed(self):
        spec = FigureSpec(
            "figT", "t", (is_zero("drop%", "strict", claim="no drops"),)
        )
        evaluation = evaluate_figure(spec, make_result())
        assert not evaluation.passed
        assert [o.expectation.claim for o in evaluation.failures] == [
            "no drops"
        ]

    def test_to_claims_records(self):
        records = evaluate_figure(self.spec(), make_result()).to_claims()
        assert records[0]["kind"] == "is_zero"
        assert records[0]["status"] == "pass"
        assert set(records[0]) == {
            "kind", "claim", "paper", "observed", "status",
        }


class TestPaperScore:
    HEADERS = ["mode", "flows", "gbps", "m3/pg"]
    ROWS = [["off", 5, 100.0, 0.0], ["fns", 5, 90.0, 0.05]]

    def test_skips_unmatched_points_and_zero_bases(self):
        curves = {
            "gbps": {"off": [(5, 80.0), (40, 70.0)], "fns": [(5, 100.0)]},
            "m3/pg": {"off": [(5, 0.0)], "fns": [(5, 0.1)]},
            "missing": {"off": [(5, 1.0)]},
        }
        # off@5: 0.25, fns@5: 0.1, fns m3@5: 0.5; off@40, the 0 base
        # and the column the table lacks are skipped.
        score = paper_score(self.HEADERS, self.ROWS, curves)
        assert score == {
            "mre": (0.25 + 0.1 + 0.5) / 3,
            "points": 3,
            "series": {
                "gbps": {"off": 0.25, "fns": 0.1},
                "m3/pg": {"fns": 0.5},
            },
        }

    def test_none_when_nothing_matches(self):
        assert paper_score(self.HEADERS, self.ROWS, {}) is None
        curves = {"gbps": {"strict": [(5, 1.0)]}, "m3/pg": {"off": [(5, 0.0)]}}
        assert paper_score(self.HEADERS, self.ROWS, curves) is None

    def test_first_matching_row_counts(self):
        rows = self.ROWS + [["off", 5, 50.0, 0.0]]
        score = paper_score(self.HEADERS, rows, {"gbps": {"off": [(5, 80.0)]}})
        assert score["mre"] == 0.25


class TestShippedSpecs:
    def test_every_figure_has_a_spec(self):
        keys = set(SPECS)
        assert {
            "fig2", "fig3", "model", "fig7", "fig8", "fig9", "fig10",
            "fig11a", "fig11b", "fig11c", "fig12",
        } <= keys

    def test_specs_have_claims_and_digests(self):
        for key, spec in SPECS.items():
            assert spec.figure == key
            assert spec.expectations, key
            parts = spec.digest_parts()
            assert parts[0] == key
            assert len(parts) == 2 + len(spec.expectations)
