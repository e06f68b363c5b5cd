"""The IO page table, with Linux's page-reclamation semantics.

The table is a 4-level radix tree (see :mod:`repro.iommu.addr`).  Two
behaviours of the Linux implementation matter to the paper and are
modeled exactly:

1. **Mapping granularity** is a 4 KB page: ``map_page`` installs one
   PT-L4 entry, creating intermediate PT pages on demand.

2. **Reclamation** (paper Fig 5): an intermediate page-table page is
   freed *only* when a single ``unmap_range`` call covers that page's
   entire address range.  Many small unmaps that together clear a page
   never reclaim it (Fig 5d) — this is what makes it safe for F&S to
   preserve the PTcaches across descriptor-granularity unmaps, since a
   PTcache entry only goes stale when the page it points to is
   reclaimed.

``unmap_range`` reports which page-table pages were reclaimed so the
protection driver can decide whether PTcache invalidation is required
(F&S's correctness fallback, §3 of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from ..context import current_context
from ..verify.events import PtPageReclaimedEvent
from .addr import (
    ENTRIES_PER_PAGE,
    LEVEL_SHIFTS,
    PAGE_SIZE,
    PTL4_PAGE_SIZE,
    level_index,
)

__all__ = [
    "IOPageTable",
    "PageTablePage",
    "ReclaimedPage",
    "WalkResult",
    "HugeMapping",
    "MappingError",
]


class MappingError(ValueError):
    """Raised on invalid map/unmap operations (overlap, unaligned, absent)."""


class PageTablePage:
    """One 4 KB page of the IO page table at a given level.

    ``entries`` maps a 9-bit index to either a child :class:`PageTablePage`
    (levels 1-3) or a physical frame number (level 4).
    """

    __slots__ = ("level", "base_iova", "entries")

    def __init__(self, level: int, base_iova: int):
        self.level = level
        self.base_iova = base_iova
        self.entries: dict[int, Any] = {}

    @property
    def coverage_bytes(self) -> int:
        """IOVA bytes covered by this whole page (all 512 entries)."""
        return ENTRIES_PER_PAGE << LEVEL_SHIFTS[self.level]

    @property
    def end_iova(self) -> int:
        return self.base_iova + self.coverage_bytes

    def covers(self, iova: int) -> bool:
        return self.base_iova <= iova < self.end_iova

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<PT-L{self.level} page @{self.base_iova:#x} "
            f"{len(self.entries)} entries>"
        )


@dataclass(frozen=True)
class ReclaimedPage:
    """Record of one page-table page freed by an unmap operation."""

    level: int
    base_iova: int
    coverage_bytes: int


@dataclass(frozen=True)
class HugeMapping:
    """A 2 MB leaf entry installed directly in a PT-L3 page.

    ``base_frame`` is the first of 512 physically contiguous frames.
    Huge mappings are the §5 future-work extension: one IOTLB entry
    (and one walk terminating at PT-L3) covers 2 MB, cutting the
    compulsory strict-mode miss rate by 512x at the cost of 2 MB
    protection granularity.
    """

    base_frame: int


class WalkResult:
    """Outcome of a software walk: the frame plus the visited PT pages.

    ``pages`` holds the PT-L1..PT-L4 pages touched (PT-L1..PT-L3 for a
    huge mapping), used by the walker to refill the PTcaches.
    ``huge`` marks a walk that terminated at a 2 MB leaf.
    """

    __slots__ = ("frame", "pages", "huge")

    def __init__(
        self, frame: int, pages: tuple[PageTablePage, ...], huge: bool = False
    ) -> None:
        self.frame = frame
        self.pages = pages
        self.huge = huge


@dataclass
class PageTableStats:
    """Operation counts for the IO page table."""

    maps: int = 0
    unmaps: int = 0
    pages_created: int = 0
    pages_reclaimed: int = 0
    reclaims_by_level: dict[int, int] = field(
        default_factory=lambda: {1: 0, 2: 0, 3: 0, 4: 0}
    )


class IOPageTable:
    """A 4-level IO page table with Linux reclamation semantics."""

    def __init__(self) -> None:
        self.root = PageTablePage(level=1, base_iova=0)
        self.stats = PageTableStats()
        self._mapped_pages = 0
        # Safety-invariant monitor (repro.verify); None in normal runs.
        self.monitor = current_context().monitor

    # ------------------------------------------------------------------
    # Mapping
    # ------------------------------------------------------------------
    def map_page(self, iova: int, frame: int) -> None:
        """Map the 4 KB IOVA page at ``iova`` to physical ``frame``."""
        if iova % PAGE_SIZE:
            raise MappingError(f"unaligned iova {iova:#x}")
        page = self.root
        # The level indices inline, as in :meth:`walk`.
        for level, shift in ((1, 39), (2, 30), (3, 21)):
            entries = page.entries
            index = (iova >> shift) & 511
            child = entries.get(index)
            if child is None:
                child = PageTablePage(level + 1, iova & ~((1 << shift) - 1))
                entries[index] = child
                self.stats.pages_created += 1
            page = child  # type: ignore[assignment]
        entries = page.entries
        leaf_index = (iova >> 12) & 511
        if leaf_index in entries:
            raise MappingError(f"iova {iova:#x} already mapped")
        entries[leaf_index] = frame
        self._mapped_pages += 1
        self.stats.maps += 1

    def map_range(self, iova: int, frames: list[int]) -> None:
        """Map consecutive IOVA pages starting at ``iova`` to ``frames``.

        One descent per 2 MB region, as :meth:`unmap_range` does, with
        the same end state, counts and errors as one :meth:`map_page`
        per frame: on an already-mapped page, the pages below it stay
        mapped and the call raises.
        """
        if iova % PAGE_SIZE:
            raise MappingError(f"unaligned iova {iova:#x}")
        stats = self.stats
        end = iova + len(frames) * PAGE_SIZE
        addr = iova
        done = 0
        while addr < end:
            page = self.root
            for level, shift in ((1, 39), (2, 30), (3, 21)):
                entries = page.entries
                index = (addr >> shift) & 511
                child = entries.get(index)
                if child is None:
                    child = PageTablePage(level + 1, addr & ~((1 << shift) - 1))
                    entries[index] = child
                    stats.pages_created += 1
                page = child  # type: ignore[assignment]
            entries = page.entries
            first = (addr >> 12) & 511
            count = (min(end, (addr | (PTL4_PAGE_SIZE - 1)) + 1) - addr) >> 12
            leaves = range(first, first + count)
            if not entries.keys().isdisjoint(leaves):
                mapped = next(leaf for leaf in leaves if leaf in entries)
                count = mapped - first
                entries.update(zip(leaves[:count], frames[done:done + count]))
                self._mapped_pages += count
                stats.maps += count
                raise MappingError(f"iova {addr + count * PAGE_SIZE:#x} already mapped")
            entries.update(zip(leaves, frames[done:done + count]))
            self._mapped_pages += count
            stats.maps += count
            done += count
            addr += count * PAGE_SIZE

    def map_huge(self, iova: int, base_frame: int) -> None:
        """Install a 2 MB leaf at ``iova`` (must be 2 MB aligned).

        The entry lives in the PT-L3 page where a PT-L4 pointer would
        otherwise go; the 512 backing frames start at ``base_frame``
        and must be physically contiguous.
        """
        if iova % PTL4_PAGE_SIZE:
            raise MappingError(f"huge mapping at {iova:#x} not 2 MB aligned")
        page = self.root
        for level in (1, 2):
            index = level_index(iova, level)
            child = page.entries.get(index)
            if child is None:
                child_base = iova & ~((1 << LEVEL_SHIFTS[level]) - 1)
                child = PageTablePage(level + 1, child_base)
                page.entries[index] = child
                self.stats.pages_created += 1
            page = child  # type: ignore[assignment]
        index = level_index(iova, 3)
        if index in page.entries:
            raise MappingError(
                f"iova {iova:#x} already has a PT-L4 page or huge entry"
            )
        page.entries[index] = HugeMapping(base_frame)
        self._mapped_pages += 512
        self.stats.maps += 1

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def walk(self, iova: int) -> Optional[WalkResult]:
        """Full software walk; ``None`` if the IOVA is unmapped.

        The four 9-bit indices are computed inline (see
        :mod:`repro.iommu.addr` for the bit layout).  Huge leaves live
        only in PT-L3 pages, so only that level is checked for one.
        """
        root = self.root
        ptl2 = root.entries.get((iova >> 39) & 511)
        if ptl2 is None:
            return None
        ptl3 = ptl2.entries.get((iova >> 30) & 511)
        if ptl3 is None:
            return None
        ptl4 = ptl3.entries.get((iova >> 21) & 511)
        if ptl4 is None:
            return None
        if ptl4.__class__ is HugeMapping:
            # 2 MB leaf in the PT-L3 page: the walk ends one level
            # early; resolve the 4 KB sub-frame by offset.
            return WalkResult(
                ptl4.base_frame + ((iova >> 12) & 511), (root, ptl2, ptl3), True
            )
        frame = ptl4.entries.get((iova >> 12) & 511)
        if frame is None:
            return None
        return WalkResult(frame, (root, ptl2, ptl3, ptl4))

    def lookup(self, iova: int) -> Optional[int]:
        """Frame mapped at ``iova``'s page, or ``None``."""
        result = self.walk(iova)
        return result.frame if result else None

    def is_mapped(self, iova: int) -> bool:
        return self.lookup(iova) is not None

    @property
    def mapped_pages(self) -> int:
        return self._mapped_pages

    # ------------------------------------------------------------------
    # Unmapping + reclamation
    # ------------------------------------------------------------------
    def unmap_range(self, iova: int, length: int) -> list[ReclaimedPage]:
        """Unmap ``[iova, iova + length)`` in a *single* operation.

        Returns the page-table pages reclaimed by this call.  Linux
        semantics: a PT page is reclaimed iff this one call's range
        covers the page's entire coverage (paper Fig 5).  All 4 KB pages
        in the range must currently be mapped.
        """
        if iova % PAGE_SIZE or length % PAGE_SIZE:
            raise MappingError("unmap range must be page aligned")
        if length <= 0:
            raise MappingError("unmap length must be positive")
        end = iova + length
        stats = self.stats
        root = self.root
        addr = iova
        # One descent per 2 MB region: to its PT-L3 entry, which holds
        # either a whole huge leaf or the PT-L4 page whose 4 KB entries
        # the region's share of the range clears.
        while addr < end:
            ptl2 = root.entries.get((addr >> 39) & 511)
            ptl3: Any = (
                None if ptl2 is None else ptl2.entries.get((addr >> 30) & 511)
            )
            index = (addr >> 21) & 511
            child = None if ptl3 is None else ptl3.entries.get(index)
            if child is None:
                raise MappingError(f"iova {addr:#x} not mapped")
            if child.__class__ is HugeMapping:
                huge_base = addr & ~(PTL4_PAGE_SIZE - 1)
                if addr != huge_base or end - addr < PTL4_PAGE_SIZE:
                    raise MappingError(
                        f"partial unmap of huge mapping at {huge_base:#x}"
                    )
                del ptl3.entries[index]
                self._mapped_pages -= 512
                stats.unmaps += 1
                addr += PTL4_PAGE_SIZE
                continue
            region_end = min(end, (addr | (PTL4_PAGE_SIZE - 1)) + 1)
            entries = child.entries
            first = (addr >> 12) & 511
            last = first + ((region_end - addr) >> 12)
            for leaf in range(first, last):
                if entries.pop(leaf, None) is None:
                    # Keep the cleared prefix and its counts, as a
                    # page-at-a-time loop would have left them.
                    self._mapped_pages -= leaf - first
                    stats.unmaps += leaf - first
                    raise MappingError(
                        f"iova {addr + ((leaf - first) << 12):#x} not mapped"
                    )
            self._mapped_pages -= last - first
            stats.unmaps += last - first
            addr = region_end
        if length < PTL4_PAGE_SIZE:
            return []  # covers no page-table page
        return self._reclaim_covered(iova, end)

    def unmap_page(self, iova: int) -> list[ReclaimedPage]:
        """Unmap a single 4 KB page (the Linux per-page unmap path)."""
        return self.unmap_range(iova, PAGE_SIZE)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _reclaim_covered(self, start: int, end: int) -> list[ReclaimedPage]:
        """Free the pages whose whole coverage lies inside [start, end).

        A depth-first pass from the root in index order, so pages are
        reported parent before children and left to right.
        """
        reclaimed: list[ReclaimedPage] = []
        # Each frame: a page above PT-L4 and the child indices it still
        # has to visit.  Only children overlapping the range matter.
        stack = [(self.root, iter(self._overlapping(self.root, start, end)))]
        while stack:
            page, indices = stack[-1]
            span = 1 << LEVEL_SHIFTS[page.level]
            for index in indices:
                child = page.entries.get(index)
                if not isinstance(child, PageTablePage):
                    continue
                child_start = page.base_iova + index * span
                if start <= child_start and child_start + span <= end:
                    # The single operation covers this child completely:
                    # reclaim it (and implicitly everything below it).
                    self._count_subtree_reclaim(child, reclaimed)
                    del page.entries[index]
                elif child.level < 4:
                    stack.append(
                        (child, iter(self._overlapping(child, start, end)))
                    )
                    break
            else:
                stack.pop()
        return reclaimed

    @staticmethod
    def _overlapping(page: PageTablePage, start: int, end: int) -> range:
        """Indices of ``page``'s entries that overlap [start, end)."""
        shift = LEVEL_SHIFTS[page.level]
        first = max(0, (start - page.base_iova) >> shift)
        last = min(ENTRIES_PER_PAGE - 1, (end - 1 - page.base_iova) >> shift)
        return range(first, last + 1)

    def _count_subtree_reclaim(
        self, page: PageTablePage, reclaimed: list[ReclaimedPage]
    ) -> None:
        reclaimed.append(
            ReclaimedPage(page.level, page.base_iova, page.coverage_bytes)
        )
        if self.monitor is not None:
            self.monitor.record(PtPageReclaimedEvent(page))
        self.stats.pages_reclaimed += 1
        self.stats.reclaims_by_level[page.level] += 1
        for child in page.entries.values():
            if isinstance(child, PageTablePage):
                self._count_subtree_reclaim(child, reclaimed)
