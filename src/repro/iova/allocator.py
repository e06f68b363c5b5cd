"""IOVA allocator interfaces and the Linux slow path.

The allocator hands out IOVA *page ranges* and guarantees a range is
only reallocated after it is freed.  Addresses are allocated top-down
from the end of the 48-bit space, exactly like Linux's
``alloc_iova(..., limit_pfn)`` path: scan the allocated ranges from the
highest (or the cached) one downward until a free gap of the requested
size appears.  Linux keeps the ranges in a red-black tree; here they
live in an :class:`~repro.iova.rangeindex.IovaRangeIndex`, whose scan
finds the same gap and counts the same ranges passed.

CPU cost accounting: each operation charges a cost (ns) to the calling
core; the slow path costs much more than the per-CPU cache hit path,
which is the trade-off §2.2 describes.  A gap scan adds a per-step
cost for every range it passes, as Linux's tree walk does.  Costs are
tallied per core so the host model can include them in core
utilization.

Every successful allocation can be appended to an *allocation trace*
(``(iova, pages)`` tuples) which the locality analysis
(:mod:`repro.analysis.locality`) converts into the reuse-distance plots
of Figs 2e/3e/7e/8e.
"""

from __future__ import annotations

from typing import Optional, Protocol

from ..context import current_context
from ..iommu.addr import IOVA_BITS, PAGE_SHIFT
from ..verify.events import IovaAllocEvent, IovaFreeEvent
from .rangeindex import IovaRangeIndex

__all__ = [
    "IovaAllocator",
    "RbTreeIovaAllocator",
    "IovaExhaustedError",
    "DEFAULT_LIMIT_PFN",
]

# Highest allocatable pfn: the top of the 48-bit IOVA space.
DEFAULT_LIMIT_PFN = (1 << (IOVA_BITS - PAGE_SHIFT)) - 1

# CPU cost (ns) of one tree operation (insert/delete plus scan), and
# of each range a gap scan passes — the worst-case linear searches the
# paper mentions.
TREE_OP_NS = 300.0
SCAN_STEP_NS = 15.0


class IovaExhaustedError(RuntimeError):
    """No free IOVA gap of the requested size exists below the limit."""


class IovaAllocator(Protocol):
    """The allocator interface shared by the slow path and cached fronts.

    ``cpu`` identifies the calling core for cost accounting (and, in the
    caching allocator, selects the per-CPU cache).
    """

    def alloc(self, pages: int, cpu: int = 0) -> int:
        """Allocate ``pages`` contiguous IOVA pages; returns byte address."""
        ...

    def free(self, iova: int, pages: int, cpu: int = 0) -> None:
        """Return a previously allocated range."""
        ...


class RbTreeIovaAllocator:
    """Linux's rbtree IOVA allocator (the slow path).

    Parameters
    ----------
    limit_pfn:
        Allocation proceeds top-down from this pfn.
    trace:
        When given, successful allocations append ``(iova, pages)``.
    """

    def __init__(
        self,
        limit_pfn: int = DEFAULT_LIMIT_PFN,
        trace: Optional[list[tuple[int, int]]] = None,
    ) -> None:
        self.limit_pfn = limit_pfn
        self.tree = IovaRangeIndex()
        self.trace = trace
        # Safety-invariant monitor (repro.verify); None in normal runs.
        self.monitor = current_context().monitor
        self.cpu_ns_by_core: dict[int, float] = {}
        self.alloc_count = 0
        self.free_count = 0
        self.allocated_pages = 0
        self.obs = current_context().registry
        if self.obs is not None:
            scope = self.obs.scope("iova.rbtree")
            scope.counter("allocs", lambda: self.alloc_count)
            scope.counter("frees", lambda: self.free_count)
            scope.counter("cpu_ns", lambda: self.total_cpu_ns)
            scope.gauge("allocated_pages", lambda: self.allocated_pages)
        # Linux's cached-node optimization: the next gap scan resumes
        # from the last allocation instead of rescanning from the top,
        # keeping the common case O(1) even when higher address space
        # is fragmented.  Gaps that open above the cached node are
        # found by a retry-from-top pass when the downward scan fails.
        # Held as the cached range's pfn_lo.
        self._cached: Optional[int] = None

    # ------------------------------------------------------------------
    def _charge(self, cpu: int, cost_ns: float) -> None:
        self.cpu_ns_by_core[cpu] = self.cpu_ns_by_core.get(cpu, 0.0) + cost_ns

    def alloc(self, pages: int, cpu: int = 0, align_pages: int = 1) -> int:
        """Allocate top-down; returns the byte address of the range.

        The gap scan starts at the cached node (the previous
        allocation); if no gap exists below it, one retry scans from
        the very top to pick up gaps that opened through frees.
        ``align_pages`` aligns the returned range's start (hugepage
        chunks need 2 MB alignment).
        """
        if pages <= 0:
            raise ValueError("pages must be positive")
        if align_pages <= 0 or align_pages & (align_pages - 1):
            raise ValueError("alignment must be a positive power of two")
        cost = TREE_OP_NS
        found = self._scan_down(self._cached, pages, align_pages)
        if found is None and self._cached is not None:
            found = self._scan_down(None, pages, align_pages)
            cost += SCAN_STEP_NS * min(len(self.tree), 64)
        if found is None:
            self._charge(cpu, cost)
            raise IovaExhaustedError(
                f"no gap of {pages} pages below pfn {self.limit_pfn:#x}"
            )
        pfn_lo, steps = found
        cost += SCAN_STEP_NS * steps
        self.tree.insert(pfn_lo, pfn_lo + pages - 1)
        self._cached = pfn_lo
        by_core = self.cpu_ns_by_core
        by_core[cpu] = by_core.get(cpu, 0.0) + cost
        self.alloc_count += 1
        self.allocated_pages += pages
        iova = pfn_lo << PAGE_SHIFT
        if self.trace is not None:
            self.trace.append((iova, pages))
        if self.monitor is not None:
            self.monitor.record(
                IovaAllocEvent(iova, pages, cpu, "rbtree"),
                owner=id(self),
            )
        return iova

    def _scan_down(
        self, start: Optional[int], pages: int, align_pages: int = 1
    ) -> Optional[tuple[int, int]]:
        """Find the highest (aligned) gap of ``pages`` below ``start``.

        Returns ``(pfn_lo, steps)`` or ``None``.  ``start`` is the
        pfn_lo of the range to scan down from; ``None`` scans from the
        top of the space.
        """
        return self.tree.scan_down(start, self.limit_pfn, pages, align_pages)

    def free(self, iova: int, pages: int, cpu: int = 0) -> None:
        """Free a range previously returned by :meth:`alloc`."""
        if self.monitor is not None:
            self.monitor.record(
                IovaFreeEvent(iova, pages, cpu, "rbtree"),
                owner=id(self),
            )
        pfn_lo = iova >> PAGE_SHIFT
        try:
            higher = self.tree.delete(pfn_lo, pfn_lo + pages - 1)
        except KeyError:
            pfn_hi = self.tree.find(pfn_lo)
            if pfn_hi is None:
                raise ValueError(f"iova {iova:#x} is not allocated") from None
            raise ValueError(
                f"iova {iova:#x} was allocated with {pfn_hi - pfn_lo + 1} "
                f"pages, freed with {pages}"
            ) from None
        if self._cached is not None and pfn_lo >= self._cached:
            # Linux __cached_rbnode_delete_update: a free at or above
            # the cached scan position moves the cached node to the
            # freed node's higher neighbour, so the next downward scan
            # sees the hole just opened.
            self._cached = higher
        by_core = self.cpu_ns_by_core
        by_core[cpu] = by_core.get(cpu, 0.0) + TREE_OP_NS
        self.free_count += 1
        self.allocated_pages -= pages

    def is_allocated(self, iova: int) -> bool:
        """Whether the page containing ``iova`` is inside any range."""
        return self.tree.find_containing(iova >> PAGE_SHIFT) is not None

    @property
    def total_cpu_ns(self) -> float:
        return sum(self.cpu_ns_by_core.values())
