"""The Linux per-CPU IOVA cache ("rcache"): magazines and a depot.

Linux fronts the rbtree allocator with per-CPU caches so the common
alloc/free path is O(1) and lock-free (§2.1 of the paper).  The real
structure, reproduced here:

* per CPU and per size-order, two *magazines* (``loaded`` and ``prev``)
  of up to 127 IOVAs each;
* a global *depot* of full magazines per order;
* only power-of-two sizes up to 32 pages (order 0..5) are cached —
  larger requests (such as F&S's 64-page descriptor chunks) bypass the
  rcache and go straight to the rbtree;
* crucially, **cached IOVAs remain allocated in the rbtree**; their
  tree ranges are only released when a magazine is flushed from an
  overflowing depot.  This means recycling keeps circulating the same
  addresses (the per-core LIFO behaviour whose poor locality the paper
  blames for PTcache-L3 misses), and the circulating address *extent*
  exceeds the live working set by up to the parked-cache population.

The cost model charges a small constant for cache hits and delegates
to the rbtree's cost model on the slow path, letting experiments show
the CPU-efficiency/locality trade-off quantitatively.
"""

from __future__ import annotations

from array import array
from collections import deque
from typing import TYPE_CHECKING, Optional

from ..context import current_context
from ..iommu.addr import PAGE_SHIFT
from ..verify.events import IovaAllocEvent, IovaFreeEvent
from .allocator import DEFAULT_LIMIT_PFN, RbTreeIovaAllocator
from .rbtree import IovaRange

if TYPE_CHECKING:
    from ..sim.rng import SeededRng

__all__ = ["Magazine", "CachingIovaAllocator", "MAG_SIZE", "MAX_CACHED_ORDER"]

MAG_SIZE = 127  # Linux IOVA_MAG_SIZE
MAX_CACHED_ORDER = 5  # caches sizes 1..32 pages, like Linux
DEPOT_MAX_MAGS = 32


class Magazine:
    """A fixed-capacity LIFO stack of IOVA pfns."""

    __slots__ = ("pfns",)

    def __init__(self) -> None:
        self.pfns: list[int] = []

    def is_full(self) -> bool:
        return len(self.pfns) >= MAG_SIZE

    def is_empty(self) -> bool:
        return not self.pfns

    def push(self, pfn: int) -> None:
        if self.is_full():
            raise OverflowError("magazine full")
        self.pfns.append(pfn)

    def pop(self) -> int:
        return self.pfns.pop()

    def __len__(self) -> int:
        return len(self.pfns)


class _CpuRcache:
    """Per-CPU, per-order pair of magazines."""

    __slots__ = ("loaded", "prev")

    def __init__(self) -> None:
        self.loaded = Magazine()
        self.prev = Magazine()


def _find_above(above: array, index: int) -> int:
    """Root of ``index`` in the union-find, halving the path on the way."""
    while above[index] != index:
        above[index] = above[above[index]]
        index = above[index]
    return index


def _order_of(pages: int) -> Optional[int]:
    """Cache order for a request size, or ``None`` if not cacheable."""
    if pages <= 0 or pages & (pages - 1):
        return None
    order = pages.bit_length() - 1
    return order if order <= MAX_CACHED_ORDER else None


class CachingIovaAllocator:
    """The Linux ``alloc_iova_fast`` path: per-CPU caches over the rbtree."""

    def __init__(
        self,
        num_cpus: int,
        limit_pfn: int = DEFAULT_LIMIT_PFN,
        cache_hit_cost_ns: float = 25.0,
        depot_cost_ns: float = 120.0,
        tree_op_cost_ns: float = 300.0,
        trace: Optional[list[tuple[int, int]]] = None,
    ) -> None:
        if num_cpus <= 0:
            raise ValueError("need at least one cpu")
        self.num_cpus = num_cpus
        self.trace = trace
        # The rbtree keeps its own (inner) trace disabled; the caching
        # allocator records the user-visible allocation order.
        self.rbtree = RbTreeIovaAllocator(
            limit_pfn=limit_pfn, tree_op_cost_ns=tree_op_cost_ns
        )
        self.cache_hit_cost_ns = cache_hit_cost_ns
        self.depot_cost_ns = depot_cost_ns
        # Safety-invariant monitor (repro.verify); None in normal runs.
        self.monitor = current_context().monitor
        self._cpu_rcaches: list[list[_CpuRcache]] = [
            [_CpuRcache() for _ in range(MAX_CACHED_ORDER + 1)]
            for _ in range(num_cpus)
        ]
        self._depot: list[list[Magazine]] = [
            [] for _ in range(MAX_CACHED_ORDER + 1)
        ]
        self.cpu_ns_by_core: dict[int, float] = {}
        self.cache_hits = 0
        self.cache_misses = 0
        self.alloc_count = 0
        self.free_count = 0
        self.obs = current_context().registry
        if self.obs is not None:
            scope = self.obs.scope("iova.rcache")
            scope.counter("cache_hits", lambda: self.cache_hits)
            scope.counter("cache_misses", lambda: self.cache_misses)
            scope.counter("allocs", lambda: self.alloc_count)
            scope.counter("frees", lambda: self.free_count)
            scope.counter("cpu_ns", lambda: self.total_cpu_ns)
            scope.gauge("cached_iovas", lambda: self.cached_iova_count())

    # ------------------------------------------------------------------
    def _charge(self, cpu: int, cost_ns: float) -> None:
        self.cpu_ns_by_core[cpu] = self.cpu_ns_by_core.get(cpu, 0.0) + cost_ns

    def _record(self, iova: int, pages: int, cpu: int = 0) -> None:
        if self.trace is not None:
            self.trace.append((iova, pages))
        if self.monitor is not None:
            self.monitor.record(
                IovaAllocEvent(iova, pages, cpu, "rcache"),
                owner=id(self),
            )

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    def alloc(self, pages: int, cpu: int = 0, align_pages: int = 1) -> int:
        """Allocate; tries the per-CPU cache, depot, then the rbtree.

        Aligned requests (``align_pages > 1``) bypass the caches — the
        rcache does not track alignment, exactly like Linux.
        """
        if not 0 <= cpu < self.num_cpus:
            raise ValueError(f"cpu {cpu} out of range")
        self.alloc_count += 1
        order = _order_of(pages) if align_pages == 1 else None
        if order is not None:
            rcache = self._cpu_rcaches[cpu][order]
            if not rcache.loaded.is_empty():
                pfn = rcache.loaded.pop()
                self._charge(cpu, self.cache_hit_cost_ns)
                self.cache_hits += 1
                iova = pfn << PAGE_SHIFT
                self._record(iova, pages, cpu)
                return iova
            if not rcache.prev.is_empty():
                rcache.loaded, rcache.prev = rcache.prev, rcache.loaded
                pfn = rcache.loaded.pop()
                self._charge(cpu, self.cache_hit_cost_ns)
                self.cache_hits += 1
                iova = pfn << PAGE_SHIFT
                self._record(iova, pages, cpu)
                return iova
            depot = self._depot[order]
            if depot:
                rcache.loaded = depot.pop()
                pfn = rcache.loaded.pop()
                self._charge(cpu, self.depot_cost_ns)
                self.cache_hits += 1
                iova = pfn << PAGE_SHIFT
                self._record(iova, pages, cpu)
                return iova
        # Slow path: the rbtree (fresh address range, top-down).
        self.cache_misses += 1
        iova = self.rbtree.alloc(pages, cpu=cpu, align_pages=align_pages)
        self._record(iova, pages, cpu)
        return iova

    # ------------------------------------------------------------------
    # Free
    # ------------------------------------------------------------------
    def free(self, iova: int, pages: int, cpu: int = 0) -> None:
        """Free; cacheable sizes park in the per-CPU cache (staying
        allocated in the rbtree), larger sizes return to the tree."""
        if not 0 <= cpu < self.num_cpus:
            raise ValueError(f"cpu {cpu} out of range")
        self.free_count += 1
        if self.monitor is not None:
            self.monitor.record(
                IovaFreeEvent(iova, pages, cpu, "rcache"),
                owner=id(self),
            )
        order = _order_of(pages)
        if order is None:
            self.rbtree.free(iova, pages, cpu=cpu)
            return
        rcache = self._cpu_rcaches[cpu][order]
        if rcache.loaded.is_full():
            if not rcache.prev.is_full():
                rcache.loaded, rcache.prev = rcache.prev, rcache.loaded
            else:
                # Push the full magazine to the depot; on overflow the
                # oldest magazine's pfns are finally freed in the tree.
                depot = self._depot[order]
                depot.append(rcache.loaded)
                rcache.loaded = Magazine()
                if len(depot) > DEPOT_MAX_MAGS:
                    flushed = depot.pop(0)
                    for pfn in flushed.pfns:
                        self.rbtree.free(pfn << PAGE_SHIFT, pages, cpu=cpu)
                self._charge(cpu, self.depot_cost_ns)
        rcache.loaded.push(iova >> PAGE_SHIFT)
        self._charge(cpu, self.cache_hit_cost_ns)

    # ------------------------------------------------------------------
    # Long-uptime state
    # ------------------------------------------------------------------
    def age(self, count: int, rng: "SeededRng") -> None:
        """Put a fresh allocator in the state this replay leaves it in::

            cores = self.num_cpus
            iovas = [self.alloc(1, cpu=i % cores) for i in range(count)]
            rng.shuffle(iovas)
            for iova in iovas:
                self.free(iova, 1, cpu=rng.randint(0, cores - 1))

        without running ``count`` operations through the rbtree.  The
        burst is a run of cold misses, so it lands at pfns ``limit,
        limit - 1, ...``.  The frees go through the magazine and depot
        logic on plain lists, drawing the same ``rng`` values; only the
        ranges still parked in a cache at the end enter the tree.  Tree
        ranges, the rbtree's cached scan node, magazines, depot, every
        counter and per-core cost tally (same float sums, same key
        order) and, with a monitor attached, the event sequence all
        equal the replay's.  Unlike the replay, the burst is not
        appended to ``trace``: aging is setup, not measured traffic.
        """
        rbtree = self.rbtree
        if self.alloc_count or self.free_count or len(rbtree.tree):
            raise ValueError("only a fresh allocator can be aged")
        if count <= 0:
            return
        top = rbtree.limit_pfn
        low = top - count + 1
        if low < 0:
            raise ValueError(f"cannot age {count} IOVAs below pfn {top:#x}")
        cores = self.num_cpus
        monitor, tree_monitor = self.monitor, rbtree.monitor
        # Charged one op at a time, as ``_charge`` does, so the float
        # sums and the dicts' key order match the replay's exactly.
        hit_ns, tree_ns = self.cpu_ns_by_core, rbtree.cpu_ns_by_core
        tree_op_ns = rbtree.tree_op_cost_ns
        for index in range(count):
            cpu = index % cores
            tree_ns[cpu] = tree_ns.get(cpu, 0.0) + tree_op_ns
            if tree_monitor is not None or monitor is not None:
                iova = (top - index) << PAGE_SHIFT
                if tree_monitor is not None:
                    tree_monitor.record(
                        IovaAllocEvent(iova, 1, cpu, "rbtree"),
                        owner=id(rbtree),
                    )
                if monitor is not None:
                    monitor.record(
                        IovaAllocEvent(iova, 1, cpu, "rcache"),
                        owner=id(self),
                    )
        self.alloc_count = self.cache_misses = count
        rbtree.alloc_count = count

        # The free stream, on plain lists.  ``order`` is the shuffled
        # burst.  Pfn ``low + i`` is index ``i``, and index ``count``
        # stands for "none".  ``above[i]`` is a union-find link toward
        # the lowest still-allocated index at or above ``i``: the
        # rbtree successor that a free at or above the cached scan
        # node (index ``cached``) moves it to.
        order = array("q", range(top, low - 1, -1))
        rng.shuffle(order)
        above = array("q", range(count + 1))
        cached = 0
        loaded: list[list[int]] = [[] for _ in range(cores)]
        prev: list[list[int]] = [[] for _ in range(cores)]
        depot: deque[list[int]] = deque()
        flushed = 0
        randint = rng.randint
        for pfn in order:
            cpu = randint(0, cores - 1)
            if monitor is not None:
                monitor.record(
                    IovaFreeEvent(pfn << PAGE_SHIFT, 1, cpu, "rcache"),
                    owner=id(self),
                )
            magazine = loaded[cpu]
            if len(magazine) >= MAG_SIZE:
                if len(prev[cpu]) < MAG_SIZE:
                    loaded[cpu], prev[cpu] = prev[cpu], magazine
                else:
                    depot.append(magazine)
                    loaded[cpu] = []
                    if len(depot) > DEPOT_MAX_MAGS:
                        for old in depot.popleft():
                            if tree_monitor is not None:
                                tree_monitor.record(
                                    IovaFreeEvent(
                                        old << PAGE_SHIFT, 1, cpu, "rbtree"
                                    ),
                                    owner=id(rbtree),
                                )
                            index = old - low
                            above[index] = index + 1
                            if index >= cached:
                                cached = _find_above(above, index)
                            tree_ns[cpu] = tree_ns.get(cpu, 0.0) + tree_op_ns
                            flushed += 1
                    hit_ns[cpu] = hit_ns.get(cpu, 0.0) + self.depot_cost_ns
                magazine = loaded[cpu]
            magazine.append(pfn)
            hit_ns[cpu] = hit_ns.get(cpu, 0.0) + self.cache_hit_cost_ns
        self.free_count = count
        rbtree.free_count = flushed
        rbtree.allocated_pages = count - flushed

        for cpu, rcache in enumerate(self._cpu_rcaches):
            rcache[0].loaded.pfns = loaded[cpu]
            rcache[0].prev.pfns = prev[cpu]
        for pfns in depot:
            magazine = Magazine()
            magazine.pfns = pfns
            self._depot[0].append(magazine)
        survivors = sorted(
            pfn
            for magazines in (loaded, prev, depot)
            for pfns in magazines
            for pfn in pfns
        )
        for pfn in survivors:
            node = IovaRange(pfn, pfn)
            rbtree.tree.insert(node)
            if pfn - low == cached:
                rbtree._cached = node

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def cached_iova_count(self) -> int:
        """Total IOVAs parked in magazines and the depot."""
        parked = 0
        for per_cpu in self._cpu_rcaches:
            for rcache in per_cpu:
                parked += len(rcache.loaded) + len(rcache.prev)
        for depot in self._depot:
            parked += sum(len(mag) for mag in depot)
        return parked

    def depot_magazines(self, order: int) -> int:
        return len(self._depot[order])

    @property
    def total_cpu_ns(self) -> float:
        own = sum(self.cpu_ns_by_core.values())
        return own + self.rbtree.total_cpu_ns
