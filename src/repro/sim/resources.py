"""Shared resources for simulated subsystems.

:class:`FifoQueue` is a bounded byte/item queue with tail drop, used
for the NIC input buffer and the switch queue; overflow accounting is
what produces the paper's packet-drop figures (Figs 2b, 3b, 7b, 8b).
The PCIe lanes are :class:`repro.pcie.DmaPipeline`, and the switch
port serializes in closed form (:class:`repro.net.SwitchPort`).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Optional

__all__ = ["FifoQueue"]


class FifoQueue:
    """A bounded FIFO with byte-based occupancy and tail drop.

    ``capacity_bytes`` bounds the queue; an item that does not fit is
    dropped and counted.  An optional ``ecn_threshold_bytes`` reports
    whether an enqueued item should be ECN-marked (DCTCP-style marking
    at the switch).
    """

    def __init__(
        self,
        capacity_bytes: int,
        ecn_threshold_bytes: Optional[int] = None,
    ) -> None:
        if capacity_bytes <= 0:
            raise ValueError("capacity must be positive")
        self.capacity_bytes = capacity_bytes
        self.ecn_threshold_bytes = ecn_threshold_bytes
        self._items: deque[tuple[Any, int]] = deque()
        self.occupancy_bytes = 0
        self.enqueued_items = 0
        self.enqueued_bytes = 0
        self.dropped_items = 0
        self.dropped_bytes = 0
        self.peak_occupancy_bytes = 0

    def try_enqueue(self, item: Any, size_bytes: int) -> bool:
        """Enqueue ``item``; returns ``False`` (and counts a drop) if full."""
        if self.occupancy_bytes + size_bytes > self.capacity_bytes:
            self.dropped_items += 1
            self.dropped_bytes += size_bytes
            return False
        self._items.append((item, size_bytes))
        self.occupancy_bytes += size_bytes
        self.enqueued_items += 1
        self.enqueued_bytes += size_bytes
        if self.occupancy_bytes > self.peak_occupancy_bytes:
            self.peak_occupancy_bytes = self.occupancy_bytes
        return True

    def should_mark(self) -> bool:
        """Whether current occupancy exceeds the ECN marking threshold."""
        if self.ecn_threshold_bytes is None:
            return False
        return self.occupancy_bytes > self.ecn_threshold_bytes

    def peek(self) -> Any:
        """The head item, left in place; the queue must not be empty."""
        return self._items[0][0]

    def dequeue(self) -> Optional[tuple[Any, int]]:
        """Remove and return ``(item, size_bytes)``; ``None`` if empty."""
        if not self._items:
            return None
        item, size = self._items.popleft()
        self.occupancy_bytes -= size
        return item, size

    def __len__(self) -> int:
        return len(self._items)

    @property
    def drop_fraction(self) -> float:
        """Fraction of offered items that were dropped."""
        offered = self.enqueued_items + self.dropped_items
        return self.dropped_items / offered if offered else 0.0
