"""Unit tests for the §2.2 throughput model utilities."""

import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.analysis import (
    ModelPoint,
    deltas_steady,
    extrapolate_snapshot,
    fit_l0_lm,
    memory_reads_per_packet,
    model_error,
    snapshot_delta,
    throughput_gbps,
)


def test_paper_headline_numbers():
    """The paper's worked example: M = 1.76 at 5 flows -> ~80 Gbps,
    M = 4.36 at 40 flows -> ~35 Gbps, for 4 KB packets."""
    assert throughput_gbps(4096, 1.76) == pytest.approx(79.5, abs=1.0)
    assert throughput_gbps(4096, 4.36) == pytest.approx(35.5, abs=1.0)


def test_intro_worked_example():
    """§1: four sequential 100 ns accesses -> ~400 ns per miss; with
    p = 4 KB and M = 1 the PCIe-limit intuition holds."""
    t = throughput_gbps(4096, 1.0, l0_ns=0.0, lm_ns=400.0)
    assert t == pytest.approx(4096 * 8 / 400.0)


def test_link_cap():
    assert throughput_gbps(4096, 0.0, link_gbps=100.0) == 100.0


def test_memory_reads_sum():
    assert memory_reads_per_packet(1.3, 0.05, 0.05, 0.36) == pytest.approx(
        1.76
    )


def test_invalid_packet_size():
    with pytest.raises(ValueError):
        throughput_gbps(0, 1.0)


class TestFit:
    def test_exact_two_point_fit(self):
        l0, lm = 65.0, 197.0
        points = [
            ModelPoint(4096, m, 4096 * 8 / (l0 + m * lm))
            for m in (1.5, 3.0)
        ]
        fit_l0, fit_lm = fit_l0_lm(points, nonnegative=False)
        assert fit_l0 == pytest.approx(l0, rel=1e-6)
        assert fit_lm == pytest.approx(lm, rel=1e-6)

    def test_nonnegative_fit_never_goes_negative(self):
        # Nearly collinear noisy points push plain LSQ negative.
        points = [
            ModelPoint(4096, 1.59, 78.7),
            ModelPoint(4096, 1.76, 83.0),
        ]
        l0, lm = fit_l0_lm(points)
        assert l0 >= 0 and lm >= 0

    def test_least_squares_over_many_points(self):
        l0, lm = 80.0, 150.0
        points = [
            ModelPoint(4096, m, 4096 * 8 / (l0 + m * lm))
            for m in (1.0, 1.5, 2.0, 3.0, 4.0)
        ]
        fit_l0, fit_lm = fit_l0_lm(points)
        assert fit_l0 == pytest.approx(l0, rel=0.01)
        assert fit_lm == pytest.approx(lm, rel=0.01)

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            fit_l0_lm([ModelPoint(4096, 1.0, 50.0)])


def test_model_error_perfect_prediction_is_zero():
    point = ModelPoint(4096, 2.0, throughput_gbps(4096, 2.0))
    assert model_error(point, 65.0, 197.0) == pytest.approx(0.0, abs=1e-9)


def test_model_error_relative():
    point = ModelPoint(4096, 2.0, 2 * throughput_gbps(4096, 2.0))
    assert model_error(point, 65.0, 197.0) == pytest.approx(0.5)


class TestSnapshotAlgebra:
    """The epoch fast-forward's structure-generic counter math."""

    def test_delta_over_nested_structure(self):
        old = {"a": 1, "by": {"x": 2}, "cores": [1.0, 2.0]}
        new = {"a": 5, "by": {"x": 3, "y": 4}, "cores": [2.5, 2.0]}
        assert snapshot_delta(old, new) == {
            "a": 4,
            "by": {"x": 1, "y": 4},
            "cores": [1.5, 0.0],
        }

    def test_delta_over_dataclass_counters(self):
        from repro.iommu.stats import IommuStats

        old = IommuStats(translations=10, iotlb_hits=8)
        new = IommuStats(
            translations=25, iotlb_hits=20, translations_by_source={"rx": 3}
        )
        delta = snapshot_delta(old, new)
        assert delta["translations"] == 15
        assert delta["translations_by_source"] == {"rx": 3}

    def test_steady_within_tolerance(self):
        assert deltas_steady({"a": 100, "b": [1.0]}, {"a": 104, "b": [1.2]},
                             rtol=0.05, atol=1.0)
        assert not deltas_steady({"a": 100}, {"a": 120}, rtol=0.05, atol=1.0)
        # A key present on only one side diffs against zero.
        assert not deltas_steady({}, {"a": 50}, rtol=0.05, atol=1.0)

    def test_extrapolate_preserves_types_and_identity(self):
        base = {"a": 100, "f": 10.0, "keep": 7}
        adjusted = extrapolate_snapshot(base, {"a": 4, "f": 0.5}, 3.0)
        assert adjusted == {"a": 88, "f": 8.5, "keep": 7}
        assert isinstance(adjusted["a"], int)

    def test_extrapolate_rebuilds_dataclass(self):
        from repro.iommu.stats import IommuStats

        base = IommuStats(translations=100, iotlb_hits=90)
        adjusted = extrapolate_snapshot(
            base, {"translations": 10, "iotlb_hits": 9}, 2.0
        )
        assert isinstance(adjusted, IommuStats)
        assert adjusted.translations == 80
        assert adjusted.iotlb_hits == 72
        # delta() against a live stats object then reports base-delta
        # + extrapolated growth — the adjusted-snapshot trick.
        assert base.delta(adjusted).translations == 20


def test_cli_and_experiments_import_without_numpy_or_scipy():
    """Only ``fit_l0_lm`` (the ``model`` figure) needs numpy/scipy, so
    importing the CLI and the figure registry must not load either."""
    code = (
        "import sys, repro.cli, repro.experiments;"
        "print(sorted({m.split('.')[0] for m in sys.modules}"
        " & {'numpy', 'scipy'}))"
    )
    src_dir = str(pathlib.Path(repro.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src_dir),
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
