"""Pinned locality columns: each iperf cell summarizes its own trace.

An iperf cell returns the :class:`LocalitySummary` of its measurement
window's allocation trace, never the trace.  The values below were
recorded at quick scale when every cell still returned its raw trace
and the figure summarized it in the parent; the in-cell summary must
equal them field for field.
"""

import pickle
from dataclasses import fields

import pytest

from repro.analysis import LocalitySummary
from repro.apps import run_bidirectional_iperf, run_iperf
from repro.experiments import FIGURE_TABLE, QUICK, sweep

# (figure key, mode, x) -> the cell's summary at quick scale.
PINNED = {
    ("fig7", "strict", 5): LocalitySummary(
        accesses=13384,
        cold_accesses=32,
        mean_distance=15.010635110844817,
        p95_distance=30.0,
        max_distance=31,
        fraction_above_64=0.0,
        fraction_above_128=0.0,
    ),
    ("fig7", "fns", 5): LocalitySummary(
        accesses=16832,
        cold_accesses=7,
        mean_distance=0.06199108469539376,
        p95_distance=0.0,
        max_distance=6,
        fraction_above_64=0.0,
        fraction_above_128=0.0,
    ),
    ("fig2", "strict", 40): LocalitySummary(
        accesses=15545,
        cold_accesses=32,
        mean_distance=15.033326887126925,
        p95_distance=30.0,
        max_distance=31,
        fraction_above_64=0.0,
        fraction_above_128=0.0,
    ),
}


@pytest.mark.parametrize("key, mode, x", sorted(PINNED))
def test_cell_summary_is_pinned(key, mode, x):
    swept = sweep(FIGURE_TABLE[key], QUICK, modes=(mode,), xs=(x,))
    summary = swept.raw[(mode, x)].locality
    assert summary == PINNED[(key, mode, x)]
    # The row's two locality columns read that summary.
    assert swept.row(mode, x)[-2:] == [
        round(summary.p95_distance, 1),
        round(summary.fraction_above_64 * 100, 1),
    ]


def test_iperf_result_carries_summary_not_trace():
    result = run_iperf("strict", warmup_ns=500_000.0, measure_ns=1_000_000.0)
    assert not any("trace" in field.name for field in fields(result))
    assert isinstance(result.locality, LocalitySummary)
    assert result.locality.accesses > 0
    # The raw trace pickled to ~200 KB per quick strict cell.
    assert len(pickle.dumps(result)) < 4096


def test_bidir_result_has_no_locality():
    # Fig 10's rows never read locality, so its cells do not compute it.
    result = run_bidirectional_iperf(
        "strict", 1, 1, warmup_ns=500_000.0, measure_ns=1_000_000.0
    )
    assert result.locality is None
    assert len(pickle.dumps(result)) < 4096
