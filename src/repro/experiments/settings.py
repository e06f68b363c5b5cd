"""Experiment durations and shared run-length presets.

Every figure runner accepts a :class:`RunScale`.  ``FULL`` is a
runner's default when called from Python and ``--full`` on the CLI;
``QUICK`` (the CLI default) keeps runs and integration tests fast while
preserving every qualitative shape (the warm-up still covers DCTCP
convergence).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["RunScale", "QUICK", "FULL", "DEFAULT_MTTR_BOUND_NS"]


@dataclass(frozen=True)
class RunScale:
    """Warm-up and measurement durations (ns) for experiment runs."""

    name: str
    warmup_ns: float
    measure_ns: float
    # Longer horizon for tail-latency experiments (need many RPCs and
    # several RTO-scale events).
    latency_measure_ns: float


QUICK = RunScale(
    name="quick",
    warmup_ns=2_000_000.0,
    measure_ns=5_000_000.0,
    latency_measure_ns=15_000_000.0,
)

FULL = RunScale(
    name="full",
    warmup_ns=4_000_000.0,
    measure_ns=15_000_000.0,
    latency_measure_ns=60_000_000.0,
)

# Documented recovery-time bound (DESIGN.md §14): quiesce + reset +
# descriptor-retire CPU + resume is ~0.5 ms on the modeled host; 2 ms
# leaves headroom for retire work under large rings.
DEFAULT_MTTR_BOUND_NS = 2_000_000.0
