"""The NIC: input buffer, per-core Rx rings, drop accounting.

An admitted packet takes its page slots from its core's ring at once,
and its Rx DMA job — ``(packet, core, taken (descriptor, slot)
pairs)`` — waits in a bounded input buffer; the DMA engine drains it
through the PCIe/IOMMU pipeline.  When address translation inflates
per-DMA latency, the drain rate falls below the arrival rate, the
buffer fills, and packets are tail-dropped — the causal chain behind
the paper's throughput/drop figures.  A second drop mode is ring
exhaustion: a packet whose core ring has no free page slots cannot be
DMA'd (the CPU fell behind on descriptor recycling).
"""

from __future__ import annotations

import math
from collections import deque
from typing import Callable, Optional

from ..context import current_context
from ..sim import Simulator
from .ring import RxRing

__all__ = ["Nic", "NicStats", "BUFFER_BYTES"]

# The NIC input buffer (bytes of packets awaiting their Rx DMA).
BUFFER_BYTES = 384 * 1024


class NicStats:
    """Drop and arrival counters for one NIC."""

    __slots__ = (
        "arrived_packets",
        "arrived_bytes",
        "buffer_drops",
        "ring_drops",
        "dma_packets",
        "dma_bytes",
    )

    def __init__(self) -> None:
        self.arrived_packets = 0
        self.arrived_bytes = 0
        self.buffer_drops = 0
        self.ring_drops = 0
        self.dma_packets = 0
        self.dma_bytes = 0

    @property
    def total_drops(self) -> int:
        return self.buffer_drops + self.ring_drops

    @property
    def drop_fraction(self) -> float:
        if self.arrived_packets == 0:
            return 0.0
        return self.total_drops / self.arrived_packets


class Nic:
    """Receive side of the measured host's NIC."""

    def __init__(
        self,
        num_cores: int,
        buffer_bytes: int = BUFFER_BYTES,
        sim: Optional[Simulator] = None,
    ) -> None:
        if num_cores <= 0:
            raise ValueError("need at least one core")
        if buffer_bytes <= 0:
            raise ValueError("capacity must be positive")
        # Fault injector (repro.faults); None in normal runs.  The
        # simulator reference exists only for fault scheduling
        # (stall-end wakeups, doorbell redelivery).
        self.sim = sim
        self.faults = current_context().injector("nic")
        self.rings = [
            RxRing(core, sim=sim, faults=self.faults)
            for core in range(num_cores)
        ]
        # The input buffer: admitted packets' Rx DMA jobs, FIFO, and
        # the bytes they hold against ``buffer_bytes`` (tail drop).
        self.buffer_bytes = buffer_bytes
        self._jobs: deque[tuple] = deque()
        self.buffered_bytes = 0
        self.stats = NicStats()
        # Called when a fault-induced stall ends and buffered packets
        # can move again; the host points this at its DMA pump.
        self.on_wake: Optional[Callable[[], None]] = None
        self._wake_event = None
        self.stalled_dequeues = 0
        # Recovery surface: a quiesced NIC stops dequeuing (and new
        # arrivals are dropped upstream) while the host tears down and
        # rebuilds the rings.
        self.quiesced = False
        self.resets = 0
        self.obs = current_context().registry
        if self.obs is not None:
            scope = self.obs.scope("nic")
            stats = self.stats
            scope.counter("arrived_packets", lambda: stats.arrived_packets)
            scope.counter("arrived_bytes", lambda: stats.arrived_bytes)
            scope.counter("buffer_drops", lambda: stats.buffer_drops)
            scope.counter("ring_drops", lambda: stats.ring_drops)
            scope.counter("dma_packets", lambda: stats.dma_packets)
            scope.counter("dma_bytes", lambda: stats.dma_bytes)
            scope.counter("stalled_dequeues", lambda: self.stalled_dequeues)
            scope.counter(
                "posted_descriptors",
                lambda: sum(r.posted_descriptors for r in self.rings),
            )
            scope.counter(
                "completed_descriptors",
                lambda: sum(r.completed_descriptors for r in self.rings),
            )
            scope.counter(
                "dropped_doorbells",
                lambda: sum(r.dropped_doorbells for r in self.rings),
            )
            scope.gauge("buffered_bytes", lambda: self.buffered_bytes)

    def offer(self, packet, ring: RxRing, pages: int) -> bool:
        """Admit an arriving packet bound for ``ring``.

        Returns ``False`` and counts the drop when the NIC is quiesced
        for a reset (arrivals are lost, like a real reset window), when
        ``ring`` has fewer than ``pages`` free page slots, or when the
        input buffer is full.  An admitted packet takes its ``pages``
        slots from ``ring`` now (the NIC owns them on arrival) and
        buffers its Rx DMA job.
        """
        size = packet.size_bytes
        stats = self.stats
        stats.arrived_packets += 1
        stats.arrived_bytes += size
        if self.quiesced:
            stats.buffer_drops += 1
            return False
        if ring.free_pages < pages:
            stats.ring_drops += 1
            return False
        buffered = self.buffered_bytes + size
        if buffered > self.buffer_bytes:
            stats.buffer_drops += 1
            return False
        self.buffered_bytes = buffered
        self._jobs.append((packet, ring.core, ring.take_pages(pages)))
        return True

    def next_packet(self) -> Optional[tuple]:
        """Pop the next buffered Rx DMA job ``(packet, core, taken)``.

        Returns ``None`` when the buffer is empty — or when a
        fault-injected descriptor-engine stall is in effect, in which
        case a wakeup is scheduled for the stall's end so the pump
        resumes without polling.  A quiesced or wedged device dequeues
        nothing; a wedge (``stall_until() == inf``) never self-wakes —
        only a reset via the recovery path restarts the pump.
        """
        if self.quiesced:
            return None
        if self.faults is not None:
            stalled_until = self.faults.stall_until()
            if stalled_until is not None:
                self.stalled_dequeues += 1
                self._schedule_wake(stalled_until)
                return None
        if not self._jobs:
            return None
        job = self._jobs.popleft()
        size = job[0].size_bytes
        self.buffered_bytes -= size
        stats = self.stats
        stats.dma_packets += 1
        stats.dma_bytes += size
        return job

    def _schedule_wake(self, at_ns: float) -> None:
        if self.sim is None or self._wake_event is not None:
            return
        if math.isinf(at_ns) or at_ns <= self.sim.now:
            # A wedged device (inf) cannot wake itself; the watchdog or
            # recovery manager must reset it.
            return
        self._wake_event = self.sim.call_at(at_ns, self._wake)

    def _wake(self) -> None:
        self._wake_event = None
        if self.on_wake is not None:
            self.on_wake()

    # ------------------------------------------------------------------
    # Reset & recovery surface
    # ------------------------------------------------------------------
    def quiesce(self) -> None:
        """Stop the DMA engine while the host tears the rings down.

        The buffered jobs are dropped with their page slots: the
        reset tears their descriptors off the rings.
        """
        self.quiesced = True
        self._jobs.clear()
        self.buffered_bytes = 0

    def reset_device(self) -> None:
        """Function-level reset: the only way out of a device wedge.

        Cancels any pending stall wakeup (its ring state is gone) and
        clears a latched hard fault on the device's injector.
        """
        self.resets += 1
        if self._wake_event is not None:
            self._wake_event.cancel()
            self._wake_event = None
        if self.faults is not None:
            self.faults.notify_reset()

    def resume(self) -> None:
        """Re-enable the DMA engine after rings are rebuilt."""
        self.quiesced = False
