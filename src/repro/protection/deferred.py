"""The Linux deferred ("lazy") protection mode.

Deferred mode unmaps IOVAs from the page table immediately but *defers*
all cache invalidation: unmapped IOVAs accumulate until a threshold
(Linux: 250 pending ranges or a 10 ms timer), then a single global
IOTLB + PTcache flush retires the batch and the IOVAs are finally freed
for reuse.

The performance upside is fewer invalidation stalls; the safety
downside — which :meth:`device_can_access` and the safety test suite
expose — is that for the whole deferral window a malicious or buggy
device can keep using the stale IOTLB entry for an unmapped (and
possibly reallocated) page.  This is the weaker property the paper's
related work targets and F&S refuses to accept.
"""

from __future__ import annotations

from typing import Optional

from ..iommu import Iommu
from ..iommu.addr import PAGE_SIZE
from ..iommu.invalidation import CPU_COST_NS
from ..iova.caching import CachingIovaAllocator
from ..mem.physmem import PhysicalMemory
from ..nic.descriptor import PageSlot, RxDescriptor
from .base import ProtectionDriver, TxMapping
from .strict import MAP_NS, UNMAP_NS

__all__ = ["DeferredDriver"]

# Pending unmapped ranges that trigger one global flush.
FLUSH_THRESHOLD = 250


class DeferredDriver(ProtectionDriver):
    """Linux deferred mode: batched global flushes, stale-entry window."""

    name = "linux-deferred"
    strict_safety = False

    def __init__(
        self,
        iommu: Iommu,
        physmem: PhysicalMemory,
        num_cpus: int,
        allocation_trace: Optional[list[tuple[int, int]]] = None,
    ) -> None:
        super().__init__()
        self.iommu = iommu
        self.physmem = physmem
        self.flush_threshold = FLUSH_THRESHOLD
        # Hardening (repro.faults): when a flush wait comes back slower
        # than this budget, the invalidation fabric is degraded and the
        # deferral window is halved — bounding how much stale-entry
        # exposure can pile up behind a slow flush.  Healthy flushes
        # grow it back toward FLUSH_THRESHOLD.
        self.initial_flush_threshold = FLUSH_THRESHOLD
        self.min_flush_threshold = max(1, FLUSH_THRESHOLD // 8)
        self.flush_cost_budget_ns = 1.5 * CPU_COST_NS
        self.allocator = CachingIovaAllocator(
            num_cpus=num_cpus, trace=allocation_trace
        )
        # IOVAs unmapped but not yet flushed: (iova, pages, core).
        self._deferred: list[tuple[int, int, int]] = []
        self.flushes = 0
        # Make the IOMMU detect (and count) stale-entry use so
        # experiments can report the safety violations this mode admits.
        self.iommu.check_stale_hits = True

    # ------------------------------------------------------------------
    def make_rx_descriptor(self, core: int, pages: int):
        cost = 0.0
        slots = []
        for _ in range(pages):
            frame = self.physmem.alloc_frame()
            iova = self.allocator.alloc(1, cpu=core)
            self.iommu.map_page(iova, frame)
            slots.append(PageSlot(iova, frame))
        cost += pages * MAP_NS
        descriptor = RxDescriptor(slots=slots, core=core)
        self._notify_rx_mapped(descriptor)
        return descriptor, cost

    def retire_rx_descriptor(self, descriptor: RxDescriptor, core: int) -> float:
        self._notify_rx_retired(descriptor)
        cost = 0.0
        for slot in descriptor.slots:
            self.iommu.unmap_range(slot.iova, PAGE_SIZE)
            cost += UNMAP_NS
            self._defer(slot.iova, 1, core)
            self.physmem.free_frame(slot.frame)
        cost += self._maybe_flush()
        return cost

    def map_tx_page(self, core: int):
        frame = self.physmem.alloc_frame()
        iova = self.allocator.alloc(1, cpu=core)
        self.iommu.map_page(iova, frame)
        mapping = TxMapping(iova, frame)
        self._notify_tx_mapped(mapping)
        return mapping, MAP_NS

    def retire_tx_pages(self, mappings, core: int) -> float:
        self._notify_tx_retired(mappings)
        cost = 0.0
        for mapping in mappings:
            self.iommu.unmap_range(mapping.iova, PAGE_SIZE)
            cost += UNMAP_NS
            self._defer(mapping.iova, 1, core)
            self.physmem.free_frame(mapping.frame)
        cost += self._maybe_flush()
        return cost

    # ------------------------------------------------------------------
    def _defer(self, iova: int, pages: int, core: int) -> None:
        # The IOVA is NOT freed yet: reuse before the flush would hand
        # a live stale translation to a different buffer.
        self._deferred.append((iova, pages, core))

    def _maybe_flush(self) -> float:
        if len(self._deferred) < self.flush_threshold:
            return 0.0
        return self.flush()

    def flush(self) -> float:
        """Global invalidation; frees all deferred IOVAs.

        Uses the register-based flush path, which cannot lose its
        completion (only arrive late) — so IOVAs are freed strictly
        *after* a confirmed flush, even under injected faults.  A flush
        that blows the cost budget shrinks the deferral window
        (graceful degradation: more flushes, shorter stale windows);
        healthy flushes restore it.
        """
        cost = self.iommu.invalidation_queue.flush_all()
        if cost > self.flush_cost_budget_ns:
            if self.flush_threshold > self.min_flush_threshold:
                self.flush_threshold = max(
                    self.min_flush_threshold, self.flush_threshold // 2
                )
                self.degraded_flushes += 1
        elif self.flush_threshold < self.initial_flush_threshold:
            self.flush_threshold = min(
                self.initial_flush_threshold, self.flush_threshold * 2
            )
        for iova, pages, core in self._deferred:
            self.allocator.free(iova, pages, cpu=core)
        self._deferred.clear()
        self.flushes += 1
        return cost

    # ------------------------------------------------------------------
    def device_can_access(self, iova: int) -> bool:
        # The stale IOTLB entry keeps the door open until the flush.
        return self.iommu.iotlb.contains(iova) or self.iommu.page_table.is_mapped(iova)

    @property
    def pending_invalidations(self) -> int:
        return len(self._deferred)
