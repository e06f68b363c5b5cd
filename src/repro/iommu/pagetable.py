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
from typing import Optional

from ..context import current_context
from ..verify.events import PtPageReclaimedEvent
from .addr import (
    ENTRIES_PER_PAGE,
    LEVEL_SHIFTS,
    PAGE_SIZE,
    PTL4_PAGE_SHIFT,
    level_index,
)

# Local alias: a 2 MB huge mapping covers the range a PT-L4 page would.
PTL4_PAGE_SHIFT_LOCAL = PTL4_PAGE_SHIFT

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
        self.entries: dict[int, object] = {}

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


@dataclass(frozen=True)
class WalkResult:
    """Outcome of a software walk: the frame plus the visited PT pages.

    ``pages`` holds the PT-L1..PT-L4 pages touched (PT-L1..PT-L3 for a
    huge mapping), used by the walker to refill the PTcaches.
    ``huge`` marks a walk that terminated at a 2 MB leaf.
    """

    frame: int
    pages: tuple[PageTablePage, ...]
    huge: bool = False


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
        for level in (1, 2, 3):
            index = level_index(iova, level)
            child = page.entries.get(index)
            if child is None:
                child_base = iova & ~((1 << LEVEL_SHIFTS[level]) - 1)
                child = PageTablePage(level + 1, child_base)
                page.entries[index] = child
                self.stats.pages_created += 1
            page = child  # type: ignore[assignment]
        leaf_index = level_index(iova, 4)
        if leaf_index in page.entries:
            raise MappingError(f"iova {iova:#x} already mapped")
        page.entries[leaf_index] = frame
        self._mapped_pages += 1
        self.stats.maps += 1

    def map_range(self, iova: int, frames: list[int]) -> None:
        """Map consecutive IOVA pages starting at ``iova`` to ``frames``."""
        for offset, frame in enumerate(frames):
            self.map_page(iova + offset * PAGE_SIZE, frame)

    def map_huge(self, iova: int, base_frame: int) -> None:
        """Install a 2 MB leaf at ``iova`` (must be 2 MB aligned).

        The entry lives in the PT-L3 page where a PT-L4 pointer would
        otherwise go; the 512 backing frames start at ``base_frame``
        and must be physically contiguous.
        """
        if iova % (1 << PTL4_PAGE_SHIFT_LOCAL):
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
        """Full software walk; ``None`` if the IOVA is unmapped."""
        page = self.root
        visited = [page]
        for level in (1, 2, 3):
            child = page.entries.get(level_index(iova, level))
            if child is None:
                return None
            if isinstance(child, HugeMapping):
                # 2 MB leaf in the PT-L3 page: the walk ends one level
                # early; resolve the 4 KB sub-frame by offset.
                offset = (iova >> 12) & (ENTRIES_PER_PAGE - 1)
                return WalkResult(
                    frame=child.base_frame + offset,
                    pages=tuple(visited),
                    huge=True,
                )
            page = child  # type: ignore[assignment]
            visited.append(page)
        frame = page.entries.get(level_index(iova, 4))
        if frame is None:
            return None
        return WalkResult(frame=frame, pages=tuple(visited))  # type: ignore[arg-type]

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
        # Clear leaf entries (4 KB PTEs or whole 2 MB huge leaves).
        addr = iova
        while addr < end:
            huge_holder, huge_index = self._huge_entry_at(addr)
            if huge_holder is not None:
                huge_base = addr & ~((1 << PTL4_PAGE_SHIFT) - 1)
                if addr != huge_base or end - addr < (1 << PTL4_PAGE_SHIFT):
                    raise MappingError(
                        f"partial unmap of huge mapping at {huge_base:#x}"
                    )
                del huge_holder.entries[huge_index]
                self._mapped_pages -= 512
                self.stats.unmaps += 1
                addr += 1 << PTL4_PAGE_SHIFT
                continue
            leaf = self._leaf_page(addr)
            if leaf is None:
                raise MappingError(f"iova {addr:#x} not mapped")
            index = level_index(addr, 4)
            if index not in leaf.entries:
                raise MappingError(f"iova {addr:#x} not mapped")
            del leaf.entries[index]
            self._mapped_pages -= 1
            self.stats.unmaps += 1
            addr += PAGE_SIZE
        # Reclaim fully covered pages, deepest level first.
        reclaimed: list[ReclaimedPage] = []
        self._reclaim_covered(self.root, iova, end, reclaimed)
        return reclaimed

    def unmap_page(self, iova: int) -> list[ReclaimedPage]:
        """Unmap a single 4 KB page (the Linux per-page unmap path)."""
        return self.unmap_range(iova, PAGE_SIZE)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _leaf_page(self, iova: int) -> Optional[PageTablePage]:
        page = self.root
        for level in (1, 2, 3):
            child = page.entries.get(level_index(iova, level))
            if child is None or isinstance(child, HugeMapping):
                return None
            page = child  # type: ignore[assignment]
        return page

    def _huge_entry_at(self, iova: int):
        """(holder PT-L3 page, index) of a huge leaf covering ``iova``,
        or (None, None)."""
        page = self.root
        for level in (1, 2):
            child = page.entries.get(level_index(iova, level))
            if child is None or isinstance(child, HugeMapping):
                return None, None
            page = child  # type: ignore[assignment]
        index = level_index(iova, 3)
        child = page.entries.get(index)
        if isinstance(child, HugeMapping):
            return page, index
        return None, None

    def _reclaim_covered(
        self,
        page: PageTablePage,
        start: int,
        end: int,
        reclaimed: list[ReclaimedPage],
    ) -> None:
        """Free child pages whose whole coverage lies inside [start, end)."""
        if page.level >= 4:
            return
        shift = LEVEL_SHIFTS[page.level]
        child_span = 1 << shift
        # Only children overlapping the range can be affected.
        first = max(0, (start - page.base_iova) >> shift)
        last = min(
            ENTRIES_PER_PAGE - 1, (end - 1 - page.base_iova) >> shift
        )
        for index in range(first, last + 1):
            child = page.entries.get(index)
            if not isinstance(child, PageTablePage):
                continue
            child_start = page.base_iova + index * child_span
            child_end = child_start + child_span
            if start <= child_start and child_end <= end:
                # The single operation covers this child completely:
                # reclaim it (and implicitly everything below it).
                self._count_subtree_reclaim(child, reclaimed)
                del page.entries[index]
            else:
                self._reclaim_covered(child, start, end, reclaimed)

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
