"""The top-of-rack switch between the two servers.

One egress port per direction: a bounded FIFO with DCTCP ECN marking
above a threshold, drained at line rate, plus propagation delay.  The
paper's setup connects the hosts through a single switch so that all
bottlenecks are at the hosts; the switch here is accordingly simple but
real enough to carry the ECN control loop and to show that, when the
receiver's IOMMU is the bottleneck, queueing shifts to the *NIC* buffer
(where there is no ECN marking) and DCTCP must fall back to loss
recovery — the paper's drop-rate dynamics.
"""

from __future__ import annotations

from functools import partial
from typing import Callable

from ..context import current_context
from ..sim import FifoQueue, Simulator, TokenBucketPacer
from .packet import Packet

__all__ = ["SwitchPort"]


class SwitchPort:
    """One direction through the switch: queue -> serializer -> wire."""

    def __init__(
        self,
        sim: Simulator,
        rate_gbps: float = 100.0,
        buffer_bytes: int = 1_000_000,
        ecn_threshold_bytes: int = 200_000,
        propagation_ns: float = 2_000.0,
        deliver: Callable[[Packet], None] = lambda packet: None,
    ) -> None:
        self.sim = sim
        self.queue = FifoQueue(buffer_bytes, ecn_threshold_bytes)
        self.pacer = TokenBucketPacer(sim, rate_gbps)
        self.propagation_ns = propagation_ns
        self.deliver = deliver
        self._draining = False
        # Fault injector (repro.faults); None in normal runs.
        self.faults = current_context().injector("net")
        self.injected_losses = 0
        self.reordered_packets = 0
        self.obs = current_context().registry
        if self.obs is not None:
            scope = self.obs.scope("switch.port")
            scope.counter("delivered_bytes", lambda: self.delivered_bytes)
            scope.counter("drops", lambda: self.drops)
            scope.counter("injected_losses", lambda: self.injected_losses)
            scope.counter(
                "reordered_packets", lambda: self.reordered_packets
            )
            scope.counter("marked", lambda: self.queue.marked_items)
            scope.gauge("queue_bytes", lambda: self.queue.occupancy_bytes)

    def enqueue(self, packet: Packet) -> bool:
        """Offer a packet to the port; marks/drops per queue state."""
        if self.faults is not None and self.faults.drop(packet):
            # Wire loss: the sender saw the packet leave, the receiver
            # never will — DCTCP's loss recovery has to notice.
            self.injected_losses += 1
            return True
        if not self.queue.try_enqueue(packet, packet.size_bytes):
            return False
        if self.queue.should_mark() and packet.is_data:
            packet.ecn_marked = True
        if not self._draining:
            self._drain_next()
        return True

    def _drain_next(self) -> None:
        entry = self.queue.dequeue()
        if entry is None:
            self._draining = False
            return
        self._draining = True
        packet, size = entry
        self.pacer.send(size, partial(self._on_wire_done, packet))

    def _on_wire_done(self, packet: Packet) -> None:
        # Serialization finished; deliver after propagation, then pull
        # the next queued packet.
        propagation = self.propagation_ns
        if self.faults is not None:
            extra = self.faults.reorder_delay(packet)
            if extra > 0.0:
                # Reorder: this packet takes a longer path and lands
                # after packets serialized behind it.
                self.reordered_packets += 1
                propagation += extra
        self.sim.schedule_after(propagation, partial(self.deliver, packet))
        self._drain_next()

    @property
    def drops(self) -> int:
        return self.queue.dropped_items

    @property
    def delivered_bytes(self) -> int:
        return self.pacer.sent_bytes
