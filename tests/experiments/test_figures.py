"""Tests for the figure sweep and FigureResult plumbing."""

import pytest

from repro.experiments import FIGURE_TABLE, FigureResult, RunScale, sweep

MICRO = RunScale(
    name="micro",
    warmup_ns=1_000_000.0,
    measure_ns=2_000_000.0,
    latency_measure_ns=4_000_000.0,
)


class TestFigureResult:
    def make(self):
        result = FigureResult("Fig X", "title", ["mode", "x", "gbps"])
        result.rows = [["off", 5, 100.0], ["off", 10, 99.0], ["fns", 5, 98.0]]
        result.raw = {("off", 5): None, ("off", 10): None, ("fns", 5): None}
        return result

    def test_row_lookup(self):
        assert self.make().row("fns", 5)[2] == 98.0

    def test_missing_row_raises(self):
        with pytest.raises(KeyError):
            self.make().row("strict", 5)

    def test_row_lookup_without_mode_or_x_columns(self):
        # Studies over one mode print no mode column, and x-less ones
        # no x column; a cell's row is found by its place in ``raw``.
        result = FigureResult("Fig Y", "title", ["walkers", "gbps"])
        result.rows = [[1, 70.0], [2, 80.0]]
        result.raw = {("strict", 1): None, ("strict", 2): None, "l0_ns": 1.0}
        assert result.row("strict", 2) == [2, 80.0]
        result = FigureResult("Fig Z", "title", ["mode", "gbps"])
        result.rows = [["fns", 90.0]]
        result.raw = {("fns", 1024): None}
        assert result.row("fns", 1024) == ["fns", 90.0]
        with pytest.raises(KeyError):
            result.row("fns", 2048)

    def test_format_contains_headers_and_rows(self):
        text = self.make().format()
        assert "Fig X" in text
        assert "gbps" in text
        assert "fns" in text


class TestRunners:
    def test_fig2_micro_run_has_expected_structure(self):
        result = sweep(
            FIGURE_TABLE["fig2"], modes=("off", "strict"), xs=(5,), scale=MICRO
        )
        assert len(result.rows) == 2
        off = result.row("off", 5)
        strict = result.row("strict", 5)
        # Columns: mode, flows, gbps, drop%, iotlb, m1, m2, m3, M, tx,...
        assert off[2] > 50.0
        assert strict[4] >= 1.0  # compulsory miss floor
        assert (5 in {row[1] for row in result.rows})
        assert result.raw[("strict", 5)].rx_data_pages > 0

    def test_fig12_micro_orders_modes(self):
        result = sweep(FIGURE_TABLE["fig12"], modes=("strict", "fns"), scale=MICRO)
        gbps = {row[0]: row[2] for row in result.rows}
        assert gbps["fns"] > gbps["strict"]


class TestRunScale:
    def test_presets_are_ordered(self):
        from repro.experiments import FULL, QUICK

        assert QUICK.measure_ns < FULL.measure_ns
        assert QUICK.latency_measure_ns < FULL.latency_measure_ns
