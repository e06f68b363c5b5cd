"""The PCIe/DMA pipeline between the NIC and host memory.

Each direction of PCIe is modeled as a :class:`DmaPipeline`:

* a small number of *lanes* — concurrent DMAs in flight.  The Rx
  (write) direction uses one lane: the ~100 cachelines of buffering at
  the processor-side end of PCIe let writes pipeline within one DMA but
  not deeply across DMAs, which is why per-DMA latency directly caps Rx
  throughput (paper §1's Little's-law argument).  The Tx (read)
  direction uses more lanes because PCIe read transactions tolerate
  much larger per-transaction latency before the link underutilizes
  [Vuppalapati et al. 2024] — the asymmetry Fig 10 shows.

* a shared wire serializer at the link rate (128 Gbps for the paper's
  PCIe 3.0 x16), so aggregate throughput never exceeds the link even
  with several lanes.

A DMA's service time is computed *when it starts* via a caller-supplied
``begin`` callback: the callback performs the IOTLB/PTcache probes at
the correct simulated instant (so invalidations by other traffic
interleave faithfully), reserves page-walk time on the shared walker,
and returns the completion time — typically
``max(wire_done, walk_done + l0)`` with the paper's fitted l0 = 65 ns.

Each DMA carries an opaque ``job`` (the host passes its packet and page
slots): the pipeline calls ``begin(job, start)`` and ``finish(job)``, so
callers hand over bound methods instead of allocating a closure per
callback.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Any, Callable

from ..context import current_context
from ..sim import Simulator

__all__ = [
    "DmaPipeline",
    "MAX_PAYLOAD_BYTES",
    "PCIE_GBPS",
    "RX_LANES",
    "TX_LANES",
    "transactions",
]

PCIE_GBPS = 128.0  # PCIe 3.0 x16 effective
MAX_PAYLOAD_BYTES = 256  # MaxPayloadSize: TLP splitting granule
RX_LANES = 1
TX_LANES = 4


def transactions(size_bytes: int) -> int:
    """PCIe transactions (TLPs) for one DMA of ``size_bytes``."""
    if size_bytes <= 0:
        return 0
    return -(-size_bytes // MAX_PAYLOAD_BYTES)


# ``begin`` receives the DMA's job and start time and returns its
# completion time; ``finish`` receives the job at completion.
BeginFn = Callable[[Any, float], float]
FinishFn = Callable[[Any], None]


class DmaPipeline:
    """Lane-limited, wire-serialized DMA pipeline for one direction."""

    def __init__(
        self,
        sim: Simulator,
        lanes: int,
        label: str = "dma",
    ) -> None:
        if lanes <= 0:
            raise ValueError("need at least one lane")
        self.sim = sim
        self.lanes = lanes
        self.label = label  # direction tag for metrics/trace ("rx"/"tx")
        self.inflight = 0  # lanes occupied
        self._pending: deque[tuple[int, BeginFn, FinishFn, Any]] = deque()
        self._wire_busy_until = 0.0
        self.completed_dmas = 0
        self.completed_bytes = 0
        self.busy_ns = 0.0  # lane-occupancy integral for utilization
        # Fault injector (repro.faults); None in normal runs.
        self.faults = current_context().injector("pcie")
        self.held_dmas = 0  # DMAs delayed by a link flap
        self.replayed_dmas = 0  # DMAs that ate a NACK/replay penalty
        self.obs = current_context().registry
        # Hoisted once: _begin runs per DMA and must not re-dereference
        # obs.tracer each time.
        self._tracer = self.obs.tracer if self.obs is not None else None
        if self.obs is not None:
            scope = self.obs.scope(f"pcie.{label}")
            scope.counter("dmas", lambda: self.completed_dmas)
            scope.counter("bytes", lambda: self.completed_bytes)
            scope.counter("held", lambda: self.held_dmas)
            scope.counter("replayed", lambda: self.replayed_dmas)
            scope.counter("busy_ns", lambda: self.busy_ns)
            scope.gauge("inflight", lambda: self.inflight)
            scope.gauge("queued", lambda: self.queued)

    # ------------------------------------------------------------------
    def submit(
        self, size_bytes: int, begin: BeginFn, finish: FinishFn, job: Any
    ) -> None:
        """Queue one DMA; it starts when a lane frees up.

        ``begin(job, start)`` runs when it starts and returns its
        completion time; ``finish(job)`` runs at that time.
        """
        if self.inflight >= self.lanes:
            self._pending.append((size_bytes, begin, finish, job))
        elif self.faults is None:
            # No link flap can hold it: start at once.
            self.inflight += 1
            self._begin(size_bytes, begin, finish, job)
        else:
            self._start(size_bytes, begin, finish, job)

    def reserve_wire(self, start: float, size_bytes: int) -> float:
        """Serialize ``size_bytes`` on the shared wire from ``start``.

        Returns the time the last byte crosses.  ``begin`` callbacks use
        this so that concurrent lanes cannot exceed the link rate.
        """
        wire_start = max(start, self._wire_busy_until)
        wire_ns = size_bytes * 8 / PCIE_GBPS
        if self.faults is not None:
            # Lane loss: the link retrained at reduced width, so every
            # byte serializes slower while the window is open.
            wire_ns *= self.faults.wire_slowdown()
        wire_done = wire_start + wire_ns
        self._wire_busy_until = wire_done
        return wire_done

    # ------------------------------------------------------------------
    def _start(
        self, size_bytes: int, begin: BeginFn, finish: FinishFn, job: Any
    ) -> None:
        self.inflight += 1
        if self.faults is not None:
            held_until = self.faults.hold_until()
            if held_until is not None and held_until > self.sim.now:
                # Link flap: the DMA engine cannot issue while the link
                # is down; the lane stays occupied and the transfer
                # begins when the link retrains.
                self.held_dmas += 1
                self.sim.schedule_at(
                    held_until,
                    partial(self._begin, size_bytes, begin, finish, job),
                )
                return
        self._begin(size_bytes, begin, finish, job)

    def _begin(
        self, size_bytes: int, begin: BeginFn, finish: FinishFn, job: Any
    ) -> None:
        start = self.sim.now
        completion = begin(job, start)
        if completion < start:
            raise ValueError("begin() returned a completion in the past")
        if self.faults is not None:
            penalty = self.faults.replay_penalty()
            if penalty > 0.0:
                # A TLP was NACKed; the DMA completes after the replay.
                self.replayed_dmas += 1
                completion += penalty
        self.busy_ns += completion - start
        if self._tracer is not None:
            self._tracer.complete(
                "dma",
                f"pcie.{self.label}",
                start,
                completion - start,
                bytes=size_bytes,
            )
        self.sim.schedule_at(
            completion, partial(self._complete, size_bytes, finish, job)
        )

    def _complete(self, size_bytes: int, finish: FinishFn, job: Any) -> None:
        self.inflight -= 1
        self.completed_dmas += 1
        self.completed_bytes += size_bytes
        finish(job)
        pending = self._pending
        while pending and self.inflight < self.lanes:
            self._start(*pending.popleft())

    @property
    def queued(self) -> int:
        return len(self._pending)
