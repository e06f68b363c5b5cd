"""Unit tests for the §2.2 throughput model utilities."""

import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.analysis import (
    ModelPoint,
    fit_l0_lm,
    memory_reads_per_packet,
    model_error,
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


def test_cli_and_experiments_import_without_numpy_or_scipy():
    """Only ``fit_l0_lm`` (the ``model`` figure) needs numpy/scipy, so
    importing the CLI and the figure registry must not load either; and
    a command's subsystem loads only when that command runs, so
    ``repro list`` loads no other command's module."""
    code = (
        "import contextlib, io, sys, repro.cli, repro.experiments\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    repro.cli.main(['list'])\n"
        "print(sorted({m.split('.')[0] for m in sys.modules}"
        " & {'numpy', 'scipy'}))\n"
        "print(sorted(set(sys.modules) & {'repro.obs.expect.diffing',"
        " 'repro.verify.analyze', 'repro.experiments.chaos'}))\n"
    )
    src_dir = str(pathlib.Path(repro.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src_dir),
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["[]", "[]"]
