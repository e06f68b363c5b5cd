"""IOMMU-off baseline: the device uses physical addresses directly.

No translation, no protection: the paper's "IOMMU disabled" line.  The
device can access *all* of physical memory at all times, which
:meth:`device_can_access` reports honestly — this is the unsafe
configuration everything else is compared against.
"""

from __future__ import annotations

from ..mem.physmem import PAGE_SHIFT, PhysicalMemory
from ..nic.descriptor import PageSlot, RxDescriptor
from .base import ProtectionDriver, TxMapping

__all__ = ["PassthroughDriver"]


class PassthroughDriver(ProtectionDriver):
    """No IOMMU: DMA addresses are physical addresses."""

    name = "iommu-off"
    strict_safety = False

    def __init__(self, physmem: PhysicalMemory) -> None:
        super().__init__()
        self.physmem = physmem

    def make_rx_descriptor(self, core: int, pages: int):
        slots = []
        for _ in range(pages):
            frame = self.physmem.alloc_frame()
            slots.append(PageSlot(frame << PAGE_SHIFT, frame))
        descriptor = RxDescriptor(slots=slots, core=core)
        self._notify_rx_mapped(descriptor)
        return descriptor, 0.0

    def retire_rx_descriptor(self, descriptor: RxDescriptor, core: int) -> float:
        self._notify_rx_retired(descriptor)
        for slot in descriptor.slots:
            self.physmem.free_frame(slot.frame)
        return 0.0

    def map_tx_page(self, core: int):
        frame = self.physmem.alloc_frame()
        mapping = TxMapping(frame << PAGE_SHIFT, frame)
        self._notify_tx_mapped(mapping)
        return mapping, 0.0

    def retire_tx_pages(self, mappings, core: int) -> float:
        self._notify_tx_retired(mappings)
        for mapping in mappings:
            self.physmem.free_frame(mapping.frame)
        return 0.0

    def translate_for_dma(self, iova, source, count=1, stride=0):
        # No IOMMU at all: zero reads, never aborted.
        return 0

    def device_can_access(self, iova: int) -> bool:
        # Without an IOMMU the device can always reach host memory.
        return True
