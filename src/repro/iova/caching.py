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
from typing import TYPE_CHECKING, Optional

from ..context import current_context
from ..iommu.addr import PAGE_SHIFT
from ..verify.events import IovaAllocEvent, IovaFreeEvent
from .allocator import DEFAULT_LIMIT_PFN, TREE_OP_NS, RbTreeIovaAllocator
from .rangeindex import IovaRangeIndex

if TYPE_CHECKING:
    from ..sim.rng import SeededRng

__all__ = ["Magazine", "CachingIovaAllocator", "MAG_SIZE", "MAX_CACHED_ORDER"]

MAG_SIZE = 127  # Linux IOVA_MAG_SIZE
MAX_CACHED_ORDER = 5  # caches sizes 1..32 pages, like Linux
DEPOT_MAX_MAGS = 32
# CPU cost (ns) of a per-CPU cache hit, and of a magazine exchange
# with the depot.
CACHE_HIT_NS = 25.0
DEPOT_NS = 120.0


class Magazine:
    """A LIFO stack of up to ``MAG_SIZE`` IOVA pfns (``pfns[-1]`` on top)."""

    __slots__ = ("pfns",)

    def __init__(self) -> None:
        self.pfns: list[int] = []

    def __len__(self) -> int:
        return len(self.pfns)


class _CpuRcache:
    """Per-CPU, per-order pair of magazines."""

    __slots__ = ("loaded", "prev")

    def __init__(self) -> None:
        self.loaded = Magazine()
        self.prev = Magazine()


def _charged(total: float, cost_ns: float, times: int) -> float:
    """``total`` after ``times`` charges of ``cost_ns``, one at a time."""
    for _ in range(times):
        total += cost_ns
    return total


# Cache order by request size: powers of two up to 2**MAX_CACHED_ORDER
# pages; other sizes are not cached.
_ORDERS = {1 << order: order for order in range(MAX_CACHED_ORDER + 1)}


class CachingIovaAllocator:
    """The Linux ``alloc_iova_fast`` path: per-CPU caches over the rbtree."""

    def __init__(
        self,
        num_cpus: int,
        limit_pfn: int = DEFAULT_LIMIT_PFN,
        trace: Optional[list[tuple[int, int]]] = None,
    ) -> None:
        if num_cpus <= 0:
            raise ValueError("need at least one cpu")
        self.num_cpus = num_cpus
        self.trace = trace
        # The rbtree keeps its own (inner) trace disabled; the caching
        # allocator records the user-visible allocation order.
        self.rbtree = RbTreeIovaAllocator(limit_pfn=limit_pfn)
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
        order = _ORDERS.get(pages) if align_pages == 1 else None
        if order is not None:
            # ``loaded``, else ``prev`` swapped in, else a depot magazine.
            rcache = self._cpu_rcaches[cpu][order]
            cost = CACHE_HIT_NS
            if not rcache.loaded.pfns:
                if rcache.prev.pfns:
                    rcache.loaded, rcache.prev = rcache.prev, rcache.loaded
                elif self._depot[order]:
                    rcache.loaded = self._depot[order].pop()
                    cost = DEPOT_NS
            pfns = rcache.loaded.pfns
            if pfns:
                iova = pfns.pop() << PAGE_SHIFT
                by_core = self.cpu_ns_by_core
                by_core[cpu] = by_core.get(cpu, 0.0) + cost
                self.cache_hits += 1
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
        order = _ORDERS.get(pages)
        if order is None:
            self.rbtree.free(iova, pages, cpu=cpu)
            return
        rcache = self._cpu_rcaches[cpu][order]
        if len(rcache.loaded.pfns) >= MAG_SIZE:
            if len(rcache.prev.pfns) < MAG_SIZE:
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
                self._charge(cpu, DEPOT_NS)
        # ``loaded`` has room now: it was swapped or replaced if full.
        rcache.loaded.pfns.append(iova >> PAGE_SHIFT)
        by_core = self.cpu_ns_by_core
        by_core[cpu] = by_core.get(cpu, 0.0) + CACHE_HIT_NS

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

        without running ``count`` operations.  The burst is a run of
        cold misses, so it lands at pfns ``limit, limit - 1, ...``.  The
        free stream's draws come in one call,
        :meth:`~repro.sim.rng.SeededRng.shuffle_then_randints`, and the
        magazines follow in closed form per core: a core's first
        ``MAG_SIZE`` frees fill ``loaded``, which then becomes ``prev``;
        from its ``2 * MAG_SIZE + 1``-th free on, every ``MAG_SIZE``-th
        free pushes the last ``MAG_SIZE`` to the depot; and each push
        past ``DEPOT_MAX_MAGS`` flushes the oldest magazine to the
        rbtree.  The ranges still parked at the end build the rbtree in
        one pass.  Tree ranges, the rbtree's cached scan node,
        magazines, depot, every counter and per-core cost tally (same
        float sums, same key order) and, with a monitor attached, the
        event sequence all equal the replay's.  Unlike the replay, the
        burst is not appended to ``trace``: aging is setup, not
        measured traffic.
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
        # Arrays, not lists of int objects: 8 bytes per free.
        order = array("q", range(top, low - 1, -1))
        cpus = rng.shuffle_then_randints(order, 0, cores - 1, count)
        positions = [array("q") for _ in range(cores)]
        appends = [each.append for each in positions]
        for position, cpu in enumerate(cpus):
            appends[cpu](position)

        def pfns(cpu: int, start: int, end: int) -> list[int]:
            """The pfns of ``cpu``'s frees ``start`` to ``end``."""
            return [order[position] for position in positions[cpu][start:end]]

        # Depot pushes as (stream position, core, first free pushed).
        pushes: list[tuple[int, int, int]] = []
        loaded: list[list[int]] = []
        prev: list[list[int]] = []
        for cpu, mine in enumerate(positions):
            if len(mine) <= MAG_SIZE:
                loaded.append(pfns(cpu, 0, len(mine)))
                prev.append([])
                continue
            starts = range(MAG_SIZE, len(mine) - MAG_SIZE, MAG_SIZE)
            pushes += [(mine[start + MAG_SIZE], cpu, start) for start in starts]
            loaded.append(pfns(cpu, MAG_SIZE * (len(starts) + 1), len(mine)))
            prev.append(pfns(cpu, 0, MAG_SIZE))
        pushes.sort()
        # Push ``i + DEPOT_MAX_MAGS`` flushes push ``i`` to the rbtree,
        # charged to the pushing core; the depot keeps the last
        # DEPOT_MAX_MAGS pushes.
        kept = max(len(pushes) - DEPOT_MAX_MAGS, 0)
        flushing = pushes[DEPOT_MAX_MAGS:]
        depot = [
            pfns(cpu, start, start + MAG_SIZE) for _, cpu, start in pushes[kept:]
        ]
        if self.monitor is not None or rbtree.monitor is not None:
            self._record_aging(
                order,
                cpus,
                {
                    position: pfns(cpu, start, start + MAG_SIZE)
                    for (position, _, _), (_, cpu, start) in zip(flushing, pushes)
                },
            )

        # Per-core costs, summed one charge at a time as ``_charge``
        # does, keyed in the order the replay first charges each core.
        tree_ops = {
            cpu: count // cores + (cpu < count % cores)
            for cpu in range(min(count, cores))
        }
        for _, cpu, _ in flushing:
            tree_ops[cpu] = tree_ops.get(cpu, 0) + MAG_SIZE
        tree_ns = rbtree.cpu_ns_by_core
        for cpu, ops in tree_ops.items():
            tree_ns[cpu] = _charged(0.0, TREE_OP_NS, ops)
        hit_ns = self.cpu_ns_by_core
        for cpu in dict.fromkeys(cpus):
            frees = len(positions[cpu])
            total = _charged(0.0, CACHE_HIT_NS, min(frees, 2 * MAG_SIZE))
            for start in range(2 * MAG_SIZE, frees, MAG_SIZE):
                total += DEPOT_NS
                total = _charged(
                    total, CACHE_HIT_NS, min(MAG_SIZE, frees - start)
                )
            hit_ns[cpu] = total

        flushed = kept * MAG_SIZE
        self.alloc_count = self.cache_misses = self.free_count = count
        rbtree.alloc_count = count
        rbtree.free_count = flushed
        rbtree.allocated_pages = count - flushed
        for cpu, rcache in enumerate(self._cpu_rcaches):
            rcache[0].loaded.pfns = loaded[cpu]
            rcache[0].prev.pfns = prev[cpu]
        for parked in depot:
            magazine = Magazine()
            magazine.pfns = parked
            self._depot[0].append(magazine)
        survivors = sorted(
            pfn
            for magazines in (loaded, prev, depot)
            for parked in magazines
            for pfn in parked
        )
        rbtree.tree = IovaRangeIndex((pfn, pfn) for pfn in survivors)
        # Each flush at or above the cached node moves it to the
        # flushed range's higher neighbour, so it ends just above the
        # highest pfn flushed: nothing above that pfn was ever freed.
        if kept:
            highest = 1 + max(
                max(pfns(cpu, start, start + MAG_SIZE))
                for _, cpu, start in pushes[:kept]
            )
            rbtree._cached = highest if highest <= top else None
        else:
            rbtree._cached = low

    def _record_aging(
        self, order: array, cpus: list[int], flushed_at: dict[int, list[int]]
    ) -> None:
        """Emit the aging replay's event sequence to the monitors.

        ``flushed_at`` maps a free's stream position to the pfns its
        depot push flushed to the rbtree.
        """
        rbtree = self.rbtree
        monitor, tree_monitor = self.monitor, rbtree.monitor
        cores = self.num_cpus
        for index in range(len(order)):
            iova = (rbtree.limit_pfn - index) << PAGE_SHIFT
            if tree_monitor is not None:
                tree_monitor.record(
                    IovaAllocEvent(iova, 1, index % cores, "rbtree"),
                    owner=id(rbtree),
                )
            if monitor is not None:
                monitor.record(
                    IovaAllocEvent(iova, 1, index % cores, "rcache"),
                    owner=id(self),
                )
        for position, (pfn, cpu) in enumerate(zip(order, cpus)):
            if monitor is not None:
                monitor.record(
                    IovaFreeEvent(pfn << PAGE_SHIFT, 1, cpu, "rcache"),
                    owner=id(self),
                )
            if tree_monitor is not None:
                for old in flushed_at.get(position, ()):
                    tree_monitor.record(
                        IovaFreeEvent(old << PAGE_SHIFT, 1, cpu, "rbtree"),
                        owner=id(rbtree),
                    )

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
