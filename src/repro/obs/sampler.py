"""The periodic metrics sampler, driven by the simulated clock.

Every ``interval_ns`` the sampler reads all of a phase's registered
metrics and appends one time-series point.  Its ticks are scheduled as
*housekeeping* events (:class:`repro.sim.Event`), so they are invisible
to :attr:`Simulator.alive_events`: a drained workload still triggers
early-quiescence detection, the watchdog still disarms when only
observers remain, and the sampler itself stops when the workload is
gone.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.engine import Simulator
    from .registry import Phase

__all__ = ["MAX_SAMPLES", "MetricsSampler"]

# A phase's series cap; stopping at it with the workload still alive
# marks the phase truncated.
MAX_SAMPLES = 4096


class MetricsSampler:
    """Samples one phase's metrics on one simulator's clock."""

    def __init__(
        self,
        sim: "Simulator",
        phase: "Phase",
        interval_ns: float,
        max_samples: int = MAX_SAMPLES,
    ) -> None:
        if interval_ns <= 0:
            raise ValueError(
                f"sampler interval must be positive, got {interval_ns}"
            )
        self.sim = sim
        self.phase = phase
        self.interval_ns = interval_ns
        self.max_samples = max_samples
        self.ticks = 0
        self.stopped = False

    def start(self) -> None:
        """Schedule the first tick one interval from now."""
        self.sim.call_after(self.interval_ns, self._tick, housekeeping=True)

    def _tick(self) -> None:
        self.phase.record_sample(self.sim.now)
        self.ticks += 1
        if self.ticks >= self.max_samples or self.sim.alive_events == 0:
            # Workload drained (or the series is full): stop observing
            # so the calendar can empty.  A full series with workload
            # still alive is a *truncated* time series — flag it on the
            # phase (no-silent-caps rule) so reports can surface it.
            if self.sim.alive_events > 0:
                self.phase.truncated = True
            self.stopped = True
            return
        self.sim.call_after(self.interval_ns, self._tick, housekeeping=True)
