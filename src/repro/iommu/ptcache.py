"""IO page table caches (PTcache-L1/L2/L3).

These are the caches the paper's contribution revolves around: per-level
caches inside the IOMMU that map a truncated IOVA to the *next-level
page-table page*, letting a walk skip the upper levels.  A PTcache-L3
hit reduces a walk to a single memory read (the PT-L4 entry).

The IOMMU's geometry follows the paper's estimate (its Fig 2e/3e red
lines put PTcache-L3 at 64–128 entries; we default to 64, the
conservative end, and the ablation-l3 study sweeps it).  Each cache is fully associative LRU — upper
level caches in CPU MMUs are typically small and fully associative
[Bhattacharjee 2013], and the paper's reuse-distance methodology
implicitly assumes LRU.

A :class:`PtCacheHierarchy` bundles the three levels and implements the
"probe all levels in parallel, use the deepest hit" walk-shortening
behaviour, plus the two invalidation policies the paper contrasts:

* ``invalidate_range`` — drop every entry covering the range at *all*
  levels (what Linux does on every unmap);
* targeted invalidation of entries pointing at *reclaimed* page-table
  pages only (all F&S needs for correctness).
"""

from __future__ import annotations

from typing import Optional

from ..context import current_context
from ..verify.events import PtCacheHitEvent
from .addr import LEVEL_SHIFTS, ptcache_key

__all__ = ["PtCache", "PtCacheHierarchy", "ProbeOutcome"]


class PtCache:
    """One fully-associative LRU page-table cache level."""

    def __init__(self, level: int, entries: int) -> None:
        if level not in (1, 2, 3):
            raise ValueError("PTcache levels are 1, 2 and 3")
        if entries <= 0:
            raise ValueError("entries must be positive")
        self.level = level
        self._shift = LEVEL_SHIFTS[level]
        self.capacity = entries
        self._entries: dict[int, object] = {}
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.evictions = 0
        # Safety-invariant monitor (repro.verify); None in normal runs.
        self.monitor = current_context().monitor
        self.obs = current_context().registry
        if self.obs is not None:
            scope = self.obs.scope(f"ptcache.l{level}")
            scope.counter("hits", lambda: self.hits)
            scope.counter("misses", lambda: self.misses)
            scope.counter("invalidations", lambda: self.invalidations)
            scope.counter("evictions", lambda: self.evictions)
            scope.gauge("resident", lambda: len(self._entries))

    def lookup(self, iova: int) -> Optional[object]:
        """Probe for the PT page covering ``iova`` at this level."""
        key = ptcache_key(iova, self.level)
        value = self._entries.get(key)
        if value is None:
            self.misses += 1
            return None
        del self._entries[key]
        self._entries[key] = value
        self.hits += 1
        if self.monitor is not None:
            self.monitor.record(PtCacheHitEvent(self.level, iova, value))
        return value

    def contains(self, iova: int) -> bool:
        """Non-counting, non-LRU-touching presence check (for tests)."""
        return ptcache_key(iova, self.level) in self._entries

    def insert(self, iova: int, page: object) -> None:
        key = ptcache_key(iova, self.level)
        if key in self._entries:
            del self._entries[key]
        elif len(self._entries) >= self.capacity:
            oldest = next(iter(self._entries))
            del self._entries[oldest]
            self.evictions += 1
        self._entries[key] = page

    def refill(self, iova: int, page: object) -> bool:
        """Probe for ``iova`` and leave ``page`` as its MRU entry.

        One pass of a walk's :meth:`lookup` then :meth:`insert`: counts
        the hit or miss, records a hit's cached page with the monitor,
        evicts the LRU entry on a miss into a full cache, and returns
        whether the probe hit.
        """
        key = iova >> self._shift
        entries = self._entries
        cached = entries.pop(key, None)
        if cached is None:
            self.misses += 1
            if len(entries) >= self.capacity:
                del entries[next(iter(entries))]
                self.evictions += 1
        else:
            self.hits += 1
            if self.monitor is not None:
                self.monitor.record(PtCacheHitEvent(self.level, iova, cached))
        entries[key] = page
        return cached is not None

    def invalidate_range(self, iova: int, length: int) -> int:
        """Drop entries whose coverage intersects ``[iova, iova+length)``."""
        shift = LEVEL_SHIFTS[self.level]
        first = iova >> shift
        last = (iova + length - 1) >> shift
        dropped = 0
        if last - first + 1 >= len(self._entries):
            for key in [k for k in self._entries if first <= k <= last]:
                del self._entries[key]
                dropped += 1
        else:
            for key in range(first, last + 1):
                if key in self._entries:
                    del self._entries[key]
                    dropped += 1
        self.invalidations += dropped
        return dropped

    def flush(self) -> int:
        dropped = len(self._entries)
        self._entries.clear()
        self.invalidations += dropped
        return dropped

    @property
    def resident_entries(self) -> int:
        return len(self._entries)


class ProbeOutcome:
    """Result of probing the PTcache levels for one walk.

    ``deepest_hit_level`` is 3, 2, 1 or 0 (no hit).  ``memory_reads`` is
    the number of IO page table memory accesses the walk then needs:
    ``4 - deepest_hit_level`` for a 4 KB walk (a PTcache-L3 hit leaves
    only the PT-L4 read; a total miss costs the full 4 reads), one
    fewer for a huge walk, which ends at PT-L3.

    ``counted_levels`` lists the levels whose miss *added a memory
    read* — i.e. missed along with every deeper level probed.  This is
    exactly the paper's m1/m2/m3 accounting ("misses at level i that
    also led to misses in all levels below i").

    There are only seven possible outcomes; :data:`FULL_OUTCOMES` and
    :data:`UPPER_OUTCOMES` hold them, shared by every probe.
    """

    __slots__ = ("deepest_hit_level", "memory_reads", "counted_levels")

    def __init__(self, deepest_hit_level: int, levels: int = 3):
        self.deepest_hit_level = deepest_hit_level
        self.memory_reads = levels + 1 - deepest_hit_level
        self.counted_levels = tuple(range(deepest_hit_level + 1, levels + 1))


# Indexed by the deepest hit level: 4 KB walks probe L1-L3, huge walks
# (which end at PT-L3) only L1-L2.
FULL_OUTCOMES = tuple(ProbeOutcome(deepest) for deepest in (0, 1, 2, 3))
UPPER_OUTCOMES = tuple(ProbeOutcome(deepest, levels=2) for deepest in (0, 1, 2))


class PtCacheHierarchy:
    """The three PTcache levels plus walk-shortening and miss accounting."""

    def __init__(
        self,
        l1_entries: int,
        l2_entries: int,
        l3_entries: int,
    ) -> None:
        self.l1 = PtCache(1, l1_entries)
        self.l2 = PtCache(2, l2_entries)
        self.l3 = PtCache(3, l3_entries)
        # The paper's m1/m2/m3: counted (read-adding) misses per level.
        self.counted_misses = {1: 0, 2: 0, 3: 0}

    @property
    def levels(self) -> tuple[PtCache, PtCache, PtCache]:
        return (self.l1, self.l2, self.l3)

    def probe(self, iova: int, walk_pages) -> ProbeOutcome:
        """Probe all levels (conceptually in parallel); deepest hit wins.

        ``walk_pages`` is the PT-L1..PT-L4 page chain from
        :meth:`IOPageTable.walk`; each level is refilled from it in the
        same pass (the PTcache-L``i`` entry points at the PT-L``i+1``
        page).  Updates per-level hit/miss statistics and the
        paper-style counted-miss totals.
        """
        if self.l3.refill(iova, walk_pages[3]):
            deepest = 3
            self.l2.refill(iova, walk_pages[2])
            self.l1.refill(iova, walk_pages[1])
        elif self.l2.refill(iova, walk_pages[2]):
            deepest = 2
            self.l1.refill(iova, walk_pages[1])
        else:
            deepest = 1 if self.l1.refill(iova, walk_pages[1]) else 0
        outcome = FULL_OUTCOMES[deepest]
        counted = self.counted_misses
        for level in outcome.counted_levels:
            counted[level] += 1
        return outcome

    def probe_upper(self, iova: int, walk_pages) -> ProbeOutcome:
        """Probe and refill only PTcache-L1/L2 (huge walks end at PT-L3).

        ``walk_pages`` is the PT-L1..PT-L3 chain of a huge walk; the
        outcome's ``memory_reads`` counts the huge walk's 1-3 reads and
        its counted misses exclude L3.
        """
        if self.l2.refill(iova, walk_pages[2]):
            deepest = 2
            self.l1.refill(iova, walk_pages[1])
        else:
            deepest = 1 if self.l1.refill(iova, walk_pages[1]) else 0
        outcome = UPPER_OUTCOMES[deepest]
        counted = self.counted_misses
        for level in outcome.counted_levels:
            counted[level] += 1
        return outcome

    def invalidate_range(self, iova: int, length: int) -> int:
        """Linux policy: drop covering entries at every level."""
        return (
            self.l1.invalidate_range(iova, length)
            + self.l2.invalidate_range(iova, length)
            + self.l3.invalidate_range(iova, length)
        )

    def flush(self) -> int:
        return self.l1.flush() + self.l2.flush() + self.l3.flush()
