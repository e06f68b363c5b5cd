"""The IOMMU: translation, caching, walking and fault semantics.

This class glues together the IO page table, IOTLB, PTcache hierarchy
and invalidation queue, and exposes the two operations the datapath
performs:

* :meth:`translate` — the per-PCIe-transaction address translation:
  IOTLB probe; on miss a walk shortened by the PTcaches, counting the
  memory reads the walk needs (1 in the best case, 4 in the worst);

* :meth:`translate_page` — all of one page's TLPs, the datapath's unit:
  a burst of one :meth:`translate` plus N-1 counted hits, or one call
  per TLP when the run context has an observer that sees every call;

* :meth:`reserve_walk` — the *timing* side: page-walk memory reads are
  serialized at the page-table walker and cost ``lm`` (197 ns by the
  paper's fit) each.  Rx and Tx translations share the walker, which is
  how Tx/ACK traffic inflates Rx DMA latency (paper §2.2).

A DMA to an unmapped IOVA raises :class:`DmaFault` — the safety
property.  Strict mode and F&S guarantee that a device access after
unmap faults; the deferred mode does not (stale IOTLB entries may still
translate), which the safety tests demonstrate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..context import current_context
from ..mem.latency import MemoryLatencyModel
from ..verify.events import (
    DmaFaultEvent,
    MapEvent,
    TranslateEvent,
    UnmapEvent,
)
from .faultq import FaultReportingQueue
from .invalidation import InvalidationQueue
from .iotlb import Iotlb
from .pagetable import IOPageTable
from .ptcache import PtCacheHierarchy
from .stats import IommuStats

__all__ = ["Iommu", "IommuConfig", "TranslationResult", "DmaFault"]

# Cache geometry.  Real IOTLB geometries are not public; 128 entries,
# 8-way is in the range prior work assumes (see iotlb.py).  PT-L3's
# size is the one a study sweeps (IommuConfig).
IOTLB_ENTRIES = 128
IOTLB_WAYS = 8
PTCACHE_L1_ENTRIES = 32
PTCACHE_L2_ENTRIES = 32


class DmaFault(Exception):
    """A DMA targeted an IOVA with no valid translation.

    In hardware this aborts the transaction and logs a fault; raising is
    the simulation's way of catching any safety violation immediately.
    """

    def __init__(self, iova: int):
        super().__init__(f"DMA fault: iova {iova:#x} has no translation")
        self.iova = iova


class TranslationResult:
    """Outcome of one translation.

    ``memory_reads`` is 0 on an IOTLB hit; otherwise the number of IO
    page table accesses the (PTcache-shortened) walk performed.
    ``stale`` flags a translation served from a stale IOTLB entry after
    unmap (possible only in deferred mode) — a safety violation.
    ``aborted`` means the transaction was killed by the hard-fault path
    (fault queue attached): no data moved, a fault record was logged,
    and ``frame`` is meaningless.
    """

    __slots__ = ("frame", "iotlb_hit", "memory_reads", "stale", "aborted")

    def __init__(
        self,
        frame: int,
        iotlb_hit: bool,
        memory_reads: int,
        stale: bool = False,
        aborted: bool = False,
    ) -> None:
        self.frame = frame
        self.iotlb_hit = iotlb_hit
        self.memory_reads = memory_reads
        self.stale = stale
        self.aborted = aborted


@dataclass
class IommuConfig:
    """The IOMMU settings that a study or the chaos row varies."""

    ptcache_l3_entries: int = 64
    # Concurrent page-table walkers.  Hardware IOMMUs track several
    # walks in flight; reads *within* one walk are sequential (each
    # level's read depends on the previous), but walks for different
    # pages proceed in parallel.  The default of 2 reproduces the
    # paper's serial-reads-per-packet throughput model at 4 KB MTU
    # while letting multi-page (9 K MTU) DMAs overlap their per-page
    # walks, as the fitted lm = 197 ns implies.
    walkers: int = 2
    # Hard-fault path.  When True, a DMA to an unmapped IOVA is aborted
    # and logged to a FaultReportingQueue instead of raising DmaFault —
    # how real hardware behaves.  Off by default: the raise is the
    # safety tests' violation detector and must stay the default.
    fault_queue: bool = False


class Iommu:
    """The full IOMMU model (translation caches + page table + walker)."""

    def __init__(self, config: IommuConfig | None = None) -> None:
        self.config = config or IommuConfig()
        context = current_context()
        # Safety-invariant monitor (repro.verify); None in normal runs.
        self.monitor = context.monitor
        self.page_table = IOPageTable()
        self.iotlb = Iotlb(IOTLB_ENTRIES, IOTLB_WAYS)
        self.ptcaches = PtCacheHierarchy(
            PTCACHE_L1_ENTRIES,
            PTCACHE_L2_ENTRIES,
            self.config.ptcache_l3_entries,
        )
        # The hierarchy's m1/m2/m3 totals are the IOMMU's: every probe
        # comes from a walk here, so both names share one dict.
        self.stats = IommuStats(
            ptcache_counted_misses=self.ptcaches.counted_misses
        )
        self.invalidation_queue = InvalidationQueue(
            self.iotlb, self.ptcaches, self.stats
        )
        self.memory = MemoryLatencyModel()
        # Hard-fault path: PRI-style fault log + spurious-fault injector.
        # With no queue attached (the default) unmapped DMAs raise.
        self.fault_queue: Optional[FaultReportingQueue] = None
        if self.config.fault_queue:
            self.fault_queue = FaultReportingQueue()
        self.faults = context.injector("iommu")
        # Verify on every IOTLB hit that the page table still maps the
        # IOVA (detects stale-entry use).  Strict mode and F&S
        # invalidate on every unmap, so an IOTLB hit implies a live
        # mapping and the check is skipped for speed; the deferred
        # driver turns it on for its own IOMMU to surface its safety
        # hole.
        self.check_stale_hits = False
        # IOTLB hits served after the page table dropped the mapping
        # (counted only while stale-hit checks are on).
        self.stale_translations = 0
        if self.config.walkers <= 0:
            raise ValueError("need at least one walker")
        self._walker_free = [0.0] * self.config.walkers
        # An observer that sees every call (the run context's
        # ``per_call``: monitor, fault runtime) gets every TLP of a page
        # translated in full (:meth:`translate_page`).
        self.per_call = context.per_call
        self.obs = context.registry
        # Hoisted once: reserve_walk runs per page walk and must not
        # re-dereference obs.tracer each time.
        self._tracer = self.obs.tracer if self.obs is not None else None
        if self.obs is not None:
            scope = self.obs.scope("iommu")
            scope.counter("translations", lambda: self.stats.translations)
            scope.counter("iotlb_hits", lambda: self.stats.iotlb_hits)
            scope.counter("iotlb_misses", lambda: self.stats.iotlb_misses)
            scope.counter("walks", lambda: self.stats.walks)
            scope.counter("memory_reads", lambda: self.stats.memory_reads)
            scope.counter("faults", lambda: self.stats.faults)
            scope.counter(
                "invalidation_requests",
                lambda: self.stats.invalidation_requests,
            )
            for level in (1, 2, 3):
                scope.counter(
                    f"ptcache_m{level}",
                    lambda level=level: (
                        self.stats.ptcache_counted_misses[level]
                    ),
                )

    # ------------------------------------------------------------------
    # Translation (the per-transaction fast path)
    # ------------------------------------------------------------------
    def translate(self, iova: int, source: str = "rx") -> TranslationResult:
        """Translate one IOVA as the root complex would.

        Probes the IOTLB; on a miss, walks the page table, probes and
        refills the PTcaches in one pass (deepest hit wins), and reports
        the number of memory reads the walk cost.  Raises
        :class:`DmaFault` if no translation exists anywhere.
        """
        stats = self.stats
        stats.translations += 1

        if (
            self.faults is not None
            and self.fault_queue is not None
            and self.faults.spurious_fault(iova, source)
        ):
            # Fault storm: the access is perfectly valid but the
            # reporting path aborts it anyway.  Rolled per translation.
            return self._abort(iova, source, "storm")

        frame = self.iotlb.lookup(iova)
        if frame is not None:
            stats.iotlb_hits += 1
            # A present IOTLB entry is used without consulting the page
            # table — if the page table no longer maps this IOVA the
            # access is *stale* (deferred-mode safety hole).
            stale = (
                self.check_stale_hits
                and not self.page_table.is_mapped(iova)
            )
            if stale:
                self.stale_translations += 1
            if self.monitor is not None:
                self.monitor.record(
                    TranslateEvent(iova, source, True, stale, frame),
                    owner=id(self.iotlb),
                )
            return TranslationResult(frame, True, 0, stale)

        stats.iotlb_misses += 1

        walk = self.page_table.walk(iova)
        if walk is None:
            if self.fault_queue is not None:
                return self._abort(iova, source, "unmapped")
            stats.faults += 1
            if self.monitor is not None:
                self.monitor.record(
                    DmaFaultEvent(iova, source), owner=id(self.iotlb)
                )
            raise DmaFault(iova)
        stats.walks += 1
        frame = walk.frame
        if walk.huge:
            # The walk terminates at the PT-L3 entry: only PTcache-L1
            # and PTcache-L2 can shorten it (1-3 memory reads).
            memory_reads = self.ptcaches.probe_upper(iova, walk.pages).memory_reads
            self.iotlb.insert_huge(iova, frame - ((iova >> 12) & 511))
        else:
            memory_reads = self.ptcaches.probe(iova, walk.pages).memory_reads
            self.iotlb.insert(iova, frame)
        stats.memory_reads += memory_reads
        if self.monitor is not None:
            self.monitor.record(
                TranslateEvent(iova, source, False, False, frame),
                owner=id(self.iotlb),
            )
        return TranslationResult(frame, False, memory_reads)

    def translate_page(
        self, iova: int, source: str, count: int = 1, stride: int = 0
    ) -> Optional[int]:
        """Translate one page's ``count`` TLPs, ``stride`` bytes apart.

        Returns the first TLP's page-walk read count, or ``None`` when
        a TLP was aborted (fault queue attached); an unmapped access
        without a fault queue raises :class:`DmaFault` from the first
        TLP.  Later TLPs read nothing: the first one hit the page's
        IOTLB entry or walked and inserted it as MRU, and no simulator
        event runs between TLPs to evict or invalidate it.

        With ``per_call`` set (a monitor or fault runtime sees every
        call), each TLP runs :meth:`translate` at its own address, so
        every event and fault roll happens.  Otherwise TLPs 2..N are
        the counter effect of N-1 hits on the MRU entry (the
        translation batching of Kurth et al. 2018): only the first TLP
        can miss, walk or abort, and since the page table cannot change
        within the burst every TLP is stale exactly when the first one
        is.
        """
        result = self.translate(iova, source)
        if result.aborted:
            return None
        if count > 1:
            if self.per_call:
                for index in range(1, count):
                    if self.translate(iova + index * stride, source).aborted:
                        return None
                return result.memory_reads
            rest = count - 1
            stats = self.stats
            stats.translations += rest
            stats.iotlb_hits += rest
            self.iotlb.hits += rest
            if result.stale:
                self.stale_translations += rest
        return result.memory_reads

    def _abort(
        self, iova: int, source: str, reason: str
    ) -> TranslationResult:
        """Hard-fault path: kill the transaction and log a record."""
        self.stats.faults += 1
        if self.monitor is not None:
            self.monitor.record(
                DmaFaultEvent(iova, source), owner=id(self.iotlb)
            )
        assert self.fault_queue is not None
        self.fault_queue.report(iova, source, reason)
        return TranslationResult(
            frame=0, iotlb_hit=False, memory_reads=0, aborted=True
        )

    # ------------------------------------------------------------------
    # Walker timing
    # ------------------------------------------------------------------
    def reserve_walk(
        self,
        now: float,
        memory_reads: int,
        utilization: float = 0.0,
        channel: Optional[int] = None,
    ) -> float:
        """Reserve one walk of ``memory_reads`` *sequential* reads.

        Reads within a walk serialize (each level's read depends on the
        previous); walks for different pages run on the IOMMU's walker
        channels.  By default a walk takes the least-loaded channel —
        concurrent walks overlap up to the walker count and queue
        beyond it, which is what makes cheap (1-read) F&S walks almost
        free while expensive (4-read) post-invalidation walks back up.
        Passing ``channel`` pins the walk for tests.  ``utilization``
        optionally inflates per-read latency under memory-bandwidth
        contention.  Returns the completion time.
        """
        if memory_reads <= 0:
            return now
        read_ns = self.memory.read_latency_ns(utilization)
        channels = self._walker_free
        if channel is None:
            # The first of the least-loaded channels.
            index = channels.index(min(channels))
        else:
            index = channel % len(channels)
        start = max(now, channels[index])
        finish = start + memory_reads * read_ns
        channels[index] = finish
        if self._tracer is not None:
            self._tracer.complete(
                "walk",
                f"walker{index}",
                start,
                finish - start,
                reads=memory_reads,
            )
        return finish

    @property
    def walker_busy_until(self) -> float:
        """When the most-loaded walker channel frees up."""
        return max(self._walker_free)

    # ------------------------------------------------------------------
    # Mapping interface used by protection drivers
    # ------------------------------------------------------------------
    def map_page(self, iova: int, frame: int) -> None:
        self.page_table.map_page(iova, frame)
        if self.monitor is not None:
            self.monitor.record(
                MapEvent(iova, 1 << 12), owner=id(self.iotlb)
            )

    def map_range(self, iova: int, frames: list[int]) -> None:
        self.page_table.map_range(iova, frames)
        if self.monitor is not None:
            self.monitor.record(
                MapEvent(iova, len(frames) << 12), owner=id(self.iotlb)
            )

    def map_huge(self, iova: int, base_frame: int) -> None:
        """Install a 2 MB leaf (see :meth:`IOPageTable.map_huge`)."""
        self.page_table.map_huge(iova, base_frame)
        if self.monitor is not None:
            self.monitor.record(
                MapEvent(iova, 1 << 21, huge=True), owner=id(self.iotlb)
            )

    def unmap_range(self, iova: int, length: int):
        """Unmap a range in one operation; returns reclaimed PT pages."""
        reclaimed = self.page_table.unmap_range(iova, length)
        if self.monitor is not None:
            self.monitor.record(
                UnmapEvent(
                    iova,
                    length,
                    tuple(page.level for page in reclaimed),
                ),
                owner=id(self.iotlb),
            )
        return reclaimed
