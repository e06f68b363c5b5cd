"""Device reset & recovery state machine (the hard-fault protocol).

Transient faults degrade throughput and heal themselves; *hard* faults
(a wedged invalidation queue, a dead descriptor-fetch engine) persist
until the host intervenes.  :class:`RecoveryManager` is that
intervention, modeled on what real NIC drivers do after an AER event or
a TX-timeout watchdog fires:

    HEALTHY --detect--> QUIESCING --> RESETTING --> REARMING
        ^                                               |
        +---------------- RESUMING <--------------------+

* **detect** — a periodic housekeeping tick watches two cheap signals:
  the hardened drivers' degraded-flush counter climbing (every retire
  is falling back to the global flush → the invalidation queue stopped
  confirming completions) and DMA progress flatlining while the input
  buffer holds work (the device stopped fetching descriptors).  The
  tick also drains the IOMMU's fault-reporting queue, as the host's
  fault-log consumer.
* **QUIESCING** — stop the NIC's DMA engine and drop buffered packets
  (their page-slot reservations are released); arrivals during
  recovery are dropped at the wire, exactly like a real function-level
  reset window.
* **RESETTING** — tear all posted descriptors off the rings and hand
  them to the protection driver's
  :meth:`~repro.protection.base.ProtectionDriver.reset_recover`, which
  re-arms the invalidation queue *first* (clearing a wedge), retires
  every outstanding buffer through the hardened path, and closes with
  a global flush.  Then a function-level reset of the NIC clears a
  device wedge.
* **REARMING** — the host maps and posts fresh descriptor rings.
* **RESUMING** — re-enable the DMA engine; MTTR (detect → resume, in
  simulated ns) is recorded to the ``recovery`` metrics scope and the
  fault timeline.

Every stage latency is a module constant; DESIGN.md §14 derives the
documented MTTR bound from them.  The whole
machine is driven by the simulated clock and plan-seeded state only,
so chaos timelines stay byte-identical across worker counts.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..context import current_context

if TYPE_CHECKING:  # pragma: no cover
    from ..host.server import Host

__all__ = ["RecoveryManager"]

# Degraded flushes accumulated *since the last healthy baseline* that
# indicate a wedged queue.  One-off drops under transient fault windows
# rarely exhaust the retry budget twice between recoveries; a wedged
# queue degrades *every* retire until it is re-armed.  The count is
# cumulative rather than per-tick: after a reset drops in-flight
# segments, senders sit in RTO and retires arrive one per several
# ticks — a per-interval delta would never reach the threshold and a
# wedge latched behind another fault's recovery would go undetected.
DEGRADED_FLUSH_THRESHOLD = 2

# Detector cadence and modeled stage latencies of the reset protocol:
# quiesce the DMA engine, function-level reset, re-enable after the
# rings rebuild.
CHECK_INTERVAL_NS = 500_000.0
QUIESCE_NS = 100_000.0
RESET_NS = 250_000.0
RESUME_NS = 50_000.0


class RecoveryManager:
    """Detects wedged hardware and runs the reset protocol."""

    HEALTHY = "healthy"
    QUIESCING = "quiescing"
    RESETTING = "resetting"
    REARMING = "rearming"
    RESUMING = "resuming"

    def __init__(self, host: "Host") -> None:
        self.host = host
        self.sim = host.sim
        self.state = self.HEALTHY
        # MTTR accounting (simulated ns, detect -> resume).
        self.recoveries = 0
        self.mttr_last_ns = 0.0
        self.mttr_max_ns = 0.0
        self.mttr_total_ns = 0.0
        self.fault_records_drained = 0
        self._detect_time = 0.0
        self._last_dma_packets = host.nic.stats.dma_packets
        self._last_degraded = host.driver.degraded_flushes
        # Timeline hook: recovery milestones interleave with injected
        # faults so a chaos timeline reads as one causal story.
        self.faults = current_context().faults
        self.obs = current_context().registry
        if self.obs is not None:
            scope = self.obs.scope("recovery")
            scope.counter("recoveries", lambda: self.recoveries)
            scope.counter(
                "fault_records_drained",
                lambda: self.fault_records_drained,
            )
            scope.gauge("mttr_last_ns", lambda: self.mttr_last_ns)
            scope.gauge("mttr_max_ns", lambda: self.mttr_max_ns)
        self._schedule_tick()

    # ------------------------------------------------------------------
    # Detection (housekeeping, excluded from liveness accounting)
    # ------------------------------------------------------------------
    def _schedule_tick(self) -> None:
        self.sim.call_at(
            self.sim.now + CHECK_INTERVAL_NS,
            self._tick,
            housekeeping=True,
        )

    def _tick(self) -> None:
        self._drain_fault_log()
        if self.state == self.HEALTHY:
            reason = self._detect()
            if reason is not None:
                self._begin_recovery(reason)
        self._schedule_tick()

    def _drain_fault_log(self) -> None:
        iommu = self.host.iommu
        if iommu is not None and iommu.fault_queue is not None:
            self.fault_records_drained += len(iommu.fault_queue.drain())

    def _detect(self) -> str | None:
        """One detector pass; returns the wedge reason or ``None``."""
        nic = self.host.nic
        driver = self.host.driver
        dma_packets = nic.stats.dma_packets
        degraded = driver.degraded_flushes
        queue_wedged = (
            degraded - self._last_degraded >= DEGRADED_FLUSH_THRESHOLD
        )
        device_wedged = (
            dma_packets == self._last_dma_packets
            and nic.buffered_bytes > 0
        )
        # DMA-progress flatlining is a per-tick signal; the degraded
        # baseline advances only on recovery (see the threshold note).
        self._last_dma_packets = dma_packets
        if queue_wedged and device_wedged:
            return "invq+device"
        if queue_wedged:
            return "invq"
        if device_wedged:
            return "device"
        return None

    # ------------------------------------------------------------------
    # The reset protocol (real events: recovery counts as liveness)
    # ------------------------------------------------------------------
    def _begin_recovery(self, reason: str) -> None:
        self.state = self.QUIESCING
        self._detect_time = self.sim.now
        self._record("detect", f"reason={reason}")
        self.host.quiesce_datapath()
        self.sim.schedule_after(QUIESCE_NS, self._do_reset)

    def _do_reset(self) -> None:
        self.state = self.RESETTING
        descriptors = self.host.outstanding_descriptors()
        cpu_ns = self.host.driver.reset_recover(descriptors)
        self.host.nic.reset_device()
        self._record(
            "reset",
            f"descriptors={len(descriptors)} cpu={cpu_ns:.0f}",
        )
        self.sim.schedule_after(RESET_NS + cpu_ns, self._do_rearm)

    def _do_rearm(self) -> None:
        self.state = self.REARMING
        self.host.rebuild_rings()
        self.sim.schedule_after(RESUME_NS, self._do_resume)

    def _do_resume(self) -> None:
        self.state = self.RESUMING
        self.host.nic.resume()
        mttr = self.sim.now - self._detect_time
        self.recoveries += 1
        self.mttr_last_ns = mttr
        self.mttr_total_ns += mttr
        if mttr > self.mttr_max_ns:
            self.mttr_max_ns = mttr
        self._record("resume", f"mttr={mttr:.0f}")
        # Fresh baseline so the recovered interval is not re-flagged.
        self._last_dma_packets = self.host.nic.stats.dma_packets
        self._last_degraded = self.host.driver.degraded_flushes
        self.state = self.HEALTHY

    def _record(self, milestone: str, detail: str) -> None:
        if self.faults is not None:
            self.faults.record("recovery", milestone, detail)
