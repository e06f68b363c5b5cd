"""CLI wiring for ``repro run --verify``."""

import contextlib
import io

import pytest

from repro.cli import main
from repro.experiments import settings

MICRO = settings.RunScale(
    name="micro",
    warmup_ns=800_000.0,
    measure_ns=1_500_000.0,
    latency_measure_ns=3_000_000.0,
)


@pytest.fixture(scope="module")
def fig12_runs():
    """``repro run fig12`` with and without ``--verify``, at micro scale.

    Each run's (exit code, stdout).  The micro scale keeps the pair fast.
    """
    runs = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("repro.cli.QUICK", MICRO)
        for name, argv in (
            ("plain", ["run", "fig12"]),
            ("verify", ["run", "fig12", "--verify"]),
        ):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(argv)
            runs[name] = (code, out.getvalue())
    return runs


def test_run_alias(fig12_runs):
    code, out = fig12_runs["plain"]
    assert code == 0
    assert "Fig 12" in out


def test_run_with_verify_attaches_monitor(fig12_runs):
    # Fig 12 exercises every strict-family configuration; under
    # --verify each runs with the invariant monitor attached and must
    # complete violation-free.
    code, out = fig12_runs["verify"]
    assert code == 0
    assert "[verify] fig12:" in out
    assert "0 violations" in out
    assert "translations checked" in out


def test_verified_table_equals_burst_table(fig12_runs):
    # Under the monitor every TLP goes through ``translate`` one call
    # at a time; without it each page's TLPs after the first are
    # batched as IOTLB hits.  Both must print the same Fig 12 table.
    _, plain = fig12_runs["plain"]
    _, verified = fig12_runs["verify"]
    table = [line for line in verified.splitlines() if not line.startswith("[verify]")]
    assert table == plain.splitlines()
    assert "Fig 12" in plain
