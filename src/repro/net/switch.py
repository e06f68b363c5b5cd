"""The top-of-rack switch between the two servers.

One egress port per direction: a bounded FIFO with DCTCP ECN marking
above a threshold, drained at line rate, plus propagation delay.  The
paper's setup connects the hosts through a single switch so that all
bottlenecks are at the hosts; the switch here is accordingly simple but
real enough to carry the ECN control loop and to show that, when the
receiver's IOMMU is the bottleneck, queueing shifts to the *NIC* buffer
(where there is no ECN marking) and DCTCP must fall back to loss
recovery — the paper's drop-rate dynamics.

A FIFO serializer at a fixed rate knows each packet's departure when it
admits it, so admission schedules the packet's one event, its arrival
at the receiver.  The port's own deque holds the admitted packets'
``(start, size)``, and every read of it first retires the packets whose
start has come (``start <= now``).
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Callable

from ..context import current_context
from ..sim import Simulator
from .packet import Packet

__all__ = ["SwitchPort"]


class SwitchPort:
    """One direction through the switch: queue -> serializer -> wire.

    ``label`` names the direction in the metrics (``switch.<label>``).
    """

    def __init__(
        self,
        sim: Simulator,
        rate_gbps: float = 100.0,
        buffer_bytes: int = 1_000_000,
        ecn_threshold_bytes: int = 200_000,
        propagation_ns: float = 2_000.0,
        deliver: Callable[[Packet], None] = lambda packet: None,
        receiver_delay_ns: float = 0.0,
        label: str = "port",
    ) -> None:
        if buffer_bytes <= 0:
            raise ValueError("capacity must be positive")
        self.sim = sim
        self.buffer_bytes = buffer_bytes
        self.ecn_threshold_bytes = ecn_threshold_bytes
        # Admitted packets' ``(serialization start, size)``, FIFO.
        self._queue: deque[tuple[float, int]] = deque()
        self._occupancy_bytes = 0
        self.drops = 0
        self.rate_bits_per_ns = rate_gbps  # 1 Gbps == 1 bit/ns
        self.propagation_ns = propagation_ns
        self.deliver = deliver
        # The receiver's processing delay, added to each arrival time.
        self.receiver_delay_ns = receiver_delay_ns
        self._next_free = 0.0
        self._delivered_bytes = 0
        # Fault injector (repro.faults); None in normal runs.
        self.faults = current_context().injector("net")
        self.injected_losses = 0
        self.reordered_packets = 0
        self.marked = 0
        self.obs = current_context().registry
        if self.obs is not None:
            scope = self.obs.scope(f"switch.{label}")
            scope.counter("delivered_bytes", lambda: self.delivered_bytes)
            scope.counter("drops", lambda: self.drops)
            scope.counter("injected_losses", lambda: self.injected_losses)
            scope.counter(
                "reordered_packets", lambda: self.reordered_packets
            )
            scope.counter("marked", lambda: self.marked)
            scope.gauge("queue_bytes", lambda: self.queue_bytes)

    def enqueue(self, packet: Packet) -> bool:
        """Offer a packet to the port; marks/drops per queue state."""
        now = self.sim.now
        self._retire(now)
        if self.faults is not None and self.faults.drop(packet):
            # Wire loss: the sender saw the packet leave, the receiver
            # never will — DCTCP's loss recovery has to notice.
            self.injected_losses += 1
            return True
        size = packet.size_bytes
        occupancy = self._occupancy_bytes + size
        if occupancy > self.buffer_bytes:
            self.drops += 1
            return False
        start = max(now, self._next_free)
        self._queue.append((start, size))
        self._occupancy_bytes = occupancy
        if occupancy > self.ecn_threshold_bytes and packet.is_data:
            packet.ecn_marked = True
            self.marked += 1
        finish = start + size * 8 / self.rate_bits_per_ns
        self._next_free = finish
        propagation = self.propagation_ns
        if self.faults is not None:
            extra = self.faults.reorder_delay(packet)
            if extra > 0.0:
                # Reorder: this packet takes a longer path and lands
                # after packets serialized behind it.
                self.reordered_packets += 1
                propagation += extra
        self.sim.schedule_at(
            finish + propagation + self.receiver_delay_ns,
            partial(self.deliver, packet),
        )
        return True

    def _retire(self, now: float) -> None:
        """Dequeue every packet whose serialization has started."""
        queue = self._queue
        while queue and queue[0][0] <= now:
            size = queue.popleft()[1]
            self._occupancy_bytes -= size
            self._delivered_bytes += size

    @property
    def delivered_bytes(self) -> int:
        """Bytes that have left the queue for the wire."""
        self._retire(self.sim.now)
        return self._delivered_bytes

    @property
    def queue_bytes(self) -> int:
        """Bytes admitted and not yet on the wire."""
        self._retire(self.sim.now)
        return self._occupancy_bytes
