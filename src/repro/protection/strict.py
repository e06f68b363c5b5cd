"""The strict-mode driver family: Linux strict, F&S, and the ablations.

All four strict-safety configurations the paper evaluates are the same
driver with two boolean knobs (its Fig 12 decomposition):

=====================  =================  ===============
Configuration          preserve_ptcache   contiguous_iova
=====================  =================  ===============
Linux strict           no                 no
Linux + A              yes                no
Linux + B              no                 yes
F&S (A + B)            yes                yes
=====================  =================  ===============

Contiguous IOVAs bring batched invalidation with them (the paper's
Fig 12 clubs the two as idea B): the driver spends one invalidation
descriptor per unmapped range, which is one page for scattered IOVAs
and a whole run for contiguous ones.

Every configuration upholds the strict safety property: each IOVA is
unmapped and its IOTLB entry invalidated before the retire call
returns, so a malicious/buggy device can never reach a page after its
descriptor completed.  The knobs only change *what else* is invalidated
(the PTcaches), *how* IOVAs are laid out, and *how many* invalidation-
queue entries are spent.

When an unmap does reclaim a page-table page (possible only for unmap
calls covering ≥ 2 MB, which descriptor-granularity operation never
issues), a preserve-mode driver falls back to invalidating the PTcache
entries covering the reclaimed range — F&S's correctness fallback.
"""

from __future__ import annotations

from typing import Optional

from ..iommu import Iommu
from ..iommu.addr import PAGE_SIZE
from ..iova.caching import CachingIovaAllocator
from ..iova.contiguous import ChunkIovaAllocator, IovaChunk
from ..mem.physmem import PhysicalMemory
from ..nic.descriptor import PageSlot, RxDescriptor
from .base import ProtectionDriver, TxMapping

__all__ = ["StrictFamilyDriver"]

# CPU cost of one map and one unmap operation (ns), following the
# magnitudes reported for Linux dma_map/unmap [Peleg et al. 2015;
# Malka et al. 2015].  The deferred driver charges the same.
MAP_NS = 120.0
UNMAP_NS = 150.0
# Per-PTE clear cost inside a range unmap (amortized page walking in
# the kernel's unmap loop).
PTE_CLEAR_NS = 20.0


class StrictFamilyDriver(ProtectionDriver):
    """Strict-safety protection with F&S's ideas as independent flags."""

    strict_safety = True

    def __init__(
        self,
        iommu: Iommu,
        physmem: PhysicalMemory,
        num_cpus: int,
        preserve_ptcache: bool,
        contiguous_iova: bool,
        chunk_pages: int = 64,
        hugepages: bool = False,
        allocation_trace: Optional[list[tuple[int, int]]] = None,
    ) -> None:
        if hugepages and (not contiguous_iova or chunk_pages != 512):
            raise ValueError(
                "hugepage descriptors need contiguous 512-page (2 MB) chunks"
            )
        super().__init__()
        self.iommu = iommu
        self.physmem = physmem
        self.num_cpus = num_cpus
        self.preserve_ptcache = preserve_ptcache
        self.contiguous_iova = contiguous_iova
        self.chunk_pages = chunk_pages
        self.allocator = CachingIovaAllocator(
            num_cpus=num_cpus, trace=allocation_trace
        )
        self._rcache_ns = self.allocator.cpu_ns_by_core
        self._rbtree_ns = self.allocator.rbtree.cpu_ns_by_core
        self.hugepages = hugepages
        self.chunks: Optional[ChunkIovaAllocator] = None
        if contiguous_iova:
            self.chunks = ChunkIovaAllocator(
                self.allocator,
                num_cpus=num_cpus,
                chunk_pages=chunk_pages,
                align_chunks=hugepages,
            )
        self.ptcache_fallback_invalidations = 0
        flags = (
            ("A" if preserve_ptcache else "")
            + ("B" if contiguous_iova else "")
        )
        self.name = f"strict[{flags or 'linux'}]"

    # ------------------------------------------------------------------
    # Named configurations
    # ------------------------------------------------------------------
    @classmethod
    def linux_strict(cls, iommu, physmem, num_cpus, **kwargs):
        driver = cls(iommu, physmem, num_cpus, False, False, **kwargs)
        driver.name = "linux-strict"
        return driver

    @classmethod
    def fns(cls, iommu, physmem, num_cpus, **kwargs):
        driver = cls(iommu, physmem, num_cpus, True, True, **kwargs)
        driver.name = "fns"
        return driver

    @classmethod
    def fns_huge(cls, iommu, physmem, num_cpus, **kwargs):
        """F&S over 2 MB hugepage descriptors (the paper's §5 future
        work): one IOTLB entry and one invalidation per 2 MB, strict
        safety at 2 MB descriptor granularity."""
        kwargs.setdefault("chunk_pages", 512)
        driver = cls(
            iommu, physmem, num_cpus, True, True,
            hugepages=True, **kwargs,
        )
        driver.name = "fns-huge"
        return driver

    @classmethod
    def linux_plus_preserve(cls, iommu, physmem, num_cpus, **kwargs):
        """Fig 12's "Linux + A": preserve PTcaches, scattered IOVAs."""
        driver = cls(iommu, physmem, num_cpus, True, False, **kwargs)
        driver.name = "linux+A"
        return driver

    @classmethod
    def linux_plus_contiguous(cls, iommu, physmem, num_cpus, **kwargs):
        """Fig 12's "Linux + B": contiguous + batched, PTcaches dropped."""
        driver = cls(iommu, physmem, num_cpus, False, True, **kwargs)
        driver.name = "linux+B"
        return driver

    # ------------------------------------------------------------------
    # CPU cost helpers
    # ------------------------------------------------------------------
    def _allocator_ns(self, core: int) -> float:
        """Allocator CPU charged to ``core`` so far (rcache + rbtree).

        A datapath call's allocator cost is the difference of two
        readings, one before and one after it.
        """
        return self._rcache_ns.get(core, 0.0) + self._rbtree_ns.get(core, 0.0)

    # ------------------------------------------------------------------
    # Rx datapath
    # ------------------------------------------------------------------
    def make_rx_descriptor(self, core: int, pages: int):
        slots: list[PageSlot] = []
        driver_data = None
        before = self._allocator_ns(core)
        if self.hugepages:
            assert self.chunks is not None
            if pages != 512:
                raise ValueError("hugepage descriptors are 512 pages (2 MB)")
            chunk = self.chunks.alloc_chunk(cpu=core)
            base_frame = self.physmem.alloc_huge()
            self.iommu.map_huge(chunk.base_iova, base_frame)
            for index in range(pages):
                slots.append(
                    PageSlot(
                        chunk.base_iova + index * PAGE_SIZE, base_frame + index
                    )
                )
            driver_data = (chunk, base_frame)
        elif self.contiguous_iova and pages == self.chunk_pages:
            assert self.chunks is not None
            chunk = self.chunks.alloc_chunk(cpu=core)
            frames = self.physmem.alloc_frames(pages)
            # One map operation for the whole chunk-backed descriptor.
            self.iommu.map_range(chunk.base_iova, frames)
            base = chunk.base_iova
            slots = [
                PageSlot(base + index * PAGE_SIZE, frame)
                for index, frame in enumerate(frames)
            ]
            driver_data = chunk
        elif self.contiguous_iova:
            # Sub-chunk descriptors (single-page devices like Intel
            # ICE — the paper's §3 "Generality" case): slices are
            # carved sequentially across descriptors from the per-core
            # chunk, exactly like the Tx datapath.  Contiguity and
            # PTcache preservation apply in full; batched invalidation
            # is limited to the descriptor's (small) runs.
            assert self.chunks is not None
            mappings: list[TxMapping] = []
            for _ in range(pages):
                frame = self.physmem.alloc_frame()
                iova, chunk = self.chunks.alloc_page_with_chunk(cpu=core)
                self.iommu.map_page(iova, frame)
                slots.append(PageSlot(iova, frame))
                mappings.append(TxMapping(iova, frame, chunk))
            driver_data = mappings
        else:
            for _ in range(pages):
                frame = self.physmem.alloc_frame()
                iova = self.allocator.alloc(1, cpu=core)
                self.iommu.map_page(iova, frame)
                slots.append(PageSlot(iova, frame))
        map_calls = 1 if self.hugepages else pages
        cost = self._allocator_ns(core) - before + map_calls * MAP_NS
        descriptor = RxDescriptor(
            slots=slots, core=core, driver_data=driver_data
        )
        self._notify_rx_mapped(descriptor)
        return descriptor, cost

    def retire_rx_descriptor(self, descriptor: RxDescriptor, core: int) -> float:
        self._notify_rx_retired(descriptor)
        cost = 0.0
        before = self._allocator_ns(core)
        if self.hugepages:
            chunk, base_frame = descriptor.driver_data
            length = 512 * PAGE_SIZE
            reclaimed = self.iommu.unmap_range(chunk.base_iova, length)
            cost += UNMAP_NS
            cost += self._invalidate(chunk.base_iova, length, reclaimed)
            assert self.chunks is not None
            self.chunks.release_chunk(chunk, cpu=core)
            self.physmem.free_huge(base_frame)
            cost += self._allocator_ns(core) - before
            return cost
        if self.contiguous_iova and isinstance(
            descriptor.driver_data, IovaChunk
        ):
            chunk: IovaChunk = descriptor.driver_data
            base = chunk.base_iova
            length = descriptor.size * PAGE_SIZE
            # One unmap operation for the whole descriptor range.
            reclaimed = self.iommu.unmap_range(base, length)
            cost += UNMAP_NS + descriptor.size * PTE_CLEAR_NS
            cost += self._invalidate(base, length, reclaimed)
            assert self.chunks is not None
            self.chunks.release_chunk(chunk, cpu=core)
        elif self.contiguous_iova:
            # Sub-chunk descriptor: retire its chunk-local runs, just
            # like the Tx datapath does.
            cost += self._retire_tx_contiguous(descriptor.driver_data, core)
        else:
            # Linux: one unmap + one invalidation per page.
            for slot in descriptor.slots:
                reclaimed = self.iommu.unmap_range(slot.iova, PAGE_SIZE)
                cost += UNMAP_NS
                cost += self._invalidate(slot.iova, PAGE_SIZE, reclaimed)
                self.allocator.free(slot.iova, 1, cpu=core)
        for slot in descriptor.slots:
            self.physmem.free_frame(slot.frame)
        cost += self._allocator_ns(core) - before
        return cost

    # ------------------------------------------------------------------
    # Tx datapath
    # ------------------------------------------------------------------
    def map_tx_page(self, core: int):
        before = self._allocator_ns(core)
        frame = self.physmem.alloc_frame()
        if self.contiguous_iova:
            assert self.chunks is not None
            iova, chunk = self.chunks.alloc_page_with_chunk(cpu=core)
            cookie = chunk
        else:
            iova = self.allocator.alloc(1, cpu=core)
            cookie = None
        self.iommu.map_page(iova, frame)
        cost = self._allocator_ns(core) - before + MAP_NS
        mapping = TxMapping(iova, frame, cookie)
        self._notify_tx_mapped(mapping)
        return mapping, cost

    def retire_tx_pages(self, mappings: list[TxMapping], core: int) -> float:
        self._notify_tx_retired(mappings)
        cost = 0.0
        before = self._allocator_ns(core)
        if self.contiguous_iova:
            cost += self._retire_tx_contiguous(mappings, core)
        else:
            for mapping in mappings:
                reclaimed = self.iommu.unmap_range(mapping.iova, PAGE_SIZE)
                cost += UNMAP_NS
                cost += self._invalidate(mapping.iova, PAGE_SIZE, reclaimed)
                self.allocator.free(mapping.iova, 1, cpu=core)
        for mapping in mappings:
            self.physmem.free_frame(mapping.frame)
        cost += self._allocator_ns(core) - before
        return cost

    def _retire_tx_contiguous(self, mappings: list[TxMapping], core: int) -> float:
        """Group completed Tx pages into per-chunk contiguous runs and
        retire each run with a single unmap + (batched) invalidation."""
        assert self.chunks is not None
        cost = 0.0
        runs = _contiguous_runs(mappings)
        for chunk, start, count in runs:
            length = count * PAGE_SIZE
            reclaimed = self.iommu.unmap_range(start, length)
            cost += UNMAP_NS + count * PTE_CLEAR_NS
            cost += self._invalidate(start, length, reclaimed)
            self.chunks.release_pages(start, count, cpu=core)
            del chunk  # runs are already chunk-local
        return cost

    # ------------------------------------------------------------------
    # Invalidation policy (where the A/B2 flags act)
    # ------------------------------------------------------------------
    def _invalidate(self, iova, length, reclaimed) -> float:
        """One descriptor for the unmapped range, plus the PTcache
        fallback for any page-table page the unmap reclaimed."""
        preserve = self.preserve_ptcache
        cost = self._invalidate_robust(iova, length, preserve)
        if preserve and reclaimed:
            # Correctness fallback: an unmap actually reclaimed PT
            # pages, so the PTcache entries pointing at them are stale
            # and must be dropped after all.
            for page in reclaimed:
                cost += self._invalidate_robust(
                    page.base_iova,
                    page.coverage_bytes,
                    preserve,
                    ptcache_only=True,
                )
                self.ptcache_fallback_invalidations += 1
        return cost

    # ------------------------------------------------------------------
    def device_can_access(self, iova: int) -> bool:
        return self.iommu.iotlb.contains(iova) or self.iommu.page_table.is_mapped(iova)


def _contiguous_runs(
    mappings: list[TxMapping],
) -> list[tuple[IovaChunk, int, int]]:
    """Merge mappings into (chunk, start_iova, pages) runs.

    Mappings are sorted by IOVA; a run never crosses a chunk boundary
    (the release API requires chunk-local ranges).
    """
    ordered = sorted(mappings, key=lambda m: m.iova)
    runs: list[tuple[IovaChunk, int, int]] = []
    for mapping in ordered:
        chunk = mapping.cookie
        if runs:
            last_chunk, start, count = runs[-1]
            if (
                last_chunk is chunk
                and mapping.iova == start + count * PAGE_SIZE
            ):
                runs[-1] = (last_chunk, start, count + 1)
                continue
        runs.append((chunk, mapping.iova, 1))
    return runs
