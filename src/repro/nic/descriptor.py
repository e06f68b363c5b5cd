"""Rx descriptors: the multi-page DMA targets the NIC consumes.

A Mellanox CX-5 Rx descriptor (multi-packet WQE) points at 64 pages by
default; arriving packets consume page slots in order, and once the NIC
has DMA'd into every page of a descriptor the driver unmaps/invalidates
all of them (paper §2.1 step 4).  The descriptor granularity is
therefore both the *unmap* granularity of strict mode and the *chunk*
granularity of F&S.

``PageSlot`` carries the IOVA/frame pair plus everything the protection
driver needs at completion time (which chunk the IOVA came from, for
F&S).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any

__all__ = ["PageSlot", "RxDescriptor", "DEFAULT_DESCRIPTOR_PAGES"]

DEFAULT_DESCRIPTOR_PAGES = 64

_descriptor_ids = itertools.count()


@dataclass(frozen=True, slots=True)
class PageSlot:
    """One page-sized DMA target inside a descriptor."""

    iova: int
    frame: int


@dataclass
class RxDescriptor:
    """A multi-page Rx descriptor.

    ``slots`` are consumed front to back as packets arrive;
    ``dma_pending`` counts pages handed to the DMA engine whose writes
    have not yet completed.  The descriptor is *complete* — eligible for
    unmap/invalidate/recycle — once every slot is consumed and all DMA
    writes have landed.
    """

    slots: list[PageSlot]
    core: int
    driver_data: Any = None  # protection-driver cookie (e.g. F&S chunk)
    descriptor_id: int = field(default_factory=lambda: next(_descriptor_ids))
    consumed: int = 0
    dma_pending: int = 0

    @property
    def size(self) -> int:
        return len(self.slots)

    @property
    def free_pages(self) -> int:
        return len(self.slots) - self.consumed

    @property
    def is_exhausted(self) -> bool:
        return self.consumed >= len(self.slots)

    @property
    def is_complete(self) -> bool:
        return self.is_exhausted and self.dma_pending == 0

    def take_run(self, count: int) -> list[PageSlot]:
        """Consume the next ``count`` page slots for an arriving packet.

        Takes fewer when the descriptor runs out first (the packet
        continues in the next descriptor) and returns the slots taken.
        """
        first = self.consumed
        slots = self.slots
        if first >= len(slots):
            raise RuntimeError("descriptor exhausted")
        end = min(first + count, len(slots))
        self.consumed = end
        self.dma_pending += end - first
        return slots[first:end]

    def dma_done(self, pages: int = 1) -> bool:
        """Record completion of DMA writes into ``pages`` taken slots.

        Returns whether the descriptor is now complete.
        """
        pending = self.dma_pending
        if pages > pending:
            raise RuntimeError("more DMA completions than pending pages")
        self.dma_pending = pending = pending - pages
        return pending == 0 and self.consumed >= len(self.slots)
