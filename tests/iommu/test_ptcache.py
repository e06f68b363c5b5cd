"""Unit tests for the IO page table caches (PTcache-L1/L2/L3)."""

import pytest

from repro.iommu import PtCache, PtCacheHierarchy
from repro.iommu.addr import LEVEL_SHIFTS


def make_caches(l1_entries=32, l2_entries=32, l3_entries=64):
    return PtCacheHierarchy(l1_entries, l2_entries, l3_entries)


def fake_walk_pages():
    """A stand-in 4-element PT page chain for fills."""
    return ("l1", "l2", "l3", "l4")


class TestPtCache:
    def test_coverage_sharing_at_l3(self):
        cache = PtCache(level=3, entries=4)
        base = 10 << LEVEL_SHIFTS[3]
        cache.insert(base, "page")
        # Anywhere in the same 2 MB region hits the same entry.
        assert cache.lookup(base + 2**21 - 1) == "page"
        assert cache.lookup(base + 2**21) is None

    def test_lru_eviction(self):
        cache = PtCache(level=3, entries=2)
        region = LEVEL_SHIFTS[3]
        cache.insert(0 << region, "a")
        cache.insert(1 << region, "b")
        cache.lookup(0)  # touch "a"
        cache.insert(2 << region, "c")  # evicts "b"
        assert cache.lookup(1 << region) is None
        assert cache.lookup(0) == "a"
        assert cache.evictions == 1

    def test_invalidate_range_covers_intersections(self):
        cache = PtCache(level=3, entries=8)
        region = 1 << LEVEL_SHIFTS[3]
        for i in range(4):
            cache.insert(i * region, f"p{i}")
        # A range touching the tail of region 0 and head of region 2.
        dropped = cache.invalidate_range(region - 4096, region + 8192)
        assert dropped == 3  # regions 0, 1, 2
        assert cache.contains(3 * region)

    def test_invalid_level_rejected(self):
        with pytest.raises(ValueError):
            PtCache(level=4, entries=8)

    def test_flush(self):
        cache = PtCache(level=1, entries=8)
        cache.insert(0, "x")
        assert cache.flush() == 1
        assert cache.resident_entries == 0


def fill(caches, iova, pages):
    """Install a walk's chain at every level without probing."""
    for level, cache in enumerate(caches.levels, start=1):
        cache.insert(iova, pages[level])


class TestHierarchyProbe:
    def test_all_miss_costs_four_reads(self):
        caches = make_caches()
        outcome = caches.probe(0x1000, fake_walk_pages())
        assert outcome.deepest_hit_level == 0
        assert outcome.memory_reads == 4
        assert caches.counted_misses == {1: 1, 2: 1, 3: 1}

    def test_l3_hit_costs_one_read(self):
        """The paper's best case: PTcache-L3 hit -> a single PT-L4 read."""
        caches = make_caches()
        fill(caches, 0x1000, fake_walk_pages())
        outcome = caches.probe(0x1000, fake_walk_pages())
        assert outcome.deepest_hit_level == 3
        assert outcome.memory_reads == 1

    def test_l2_hit_costs_two_reads(self):
        caches = make_caches(l3_entries=1)
        fill(caches, 0x1000, fake_walk_pages())
        # Evict only the L3 entry by filling a different 2 MB region.
        caches.l3.insert(5 << 21, "other")
        outcome = caches.probe(0x1000, fake_walk_pages())
        assert outcome.deepest_hit_level == 2
        assert outcome.memory_reads == 2

    def test_l1_hit_costs_three_reads(self):
        caches = make_caches(l2_entries=1, l3_entries=1)
        fill(caches, 0x1000, fake_walk_pages())
        caches.l3.insert(5 << 21, "other")
        caches.l2.insert(5 << 30, "other")
        outcome = caches.probe(0x1000, fake_walk_pages())
        assert outcome.deepest_hit_level == 1
        assert outcome.memory_reads == 3

    def test_counted_misses_follow_paper_accounting(self):
        """m1 <= m2 <= m3: a level-i miss is counted only when every
        deeper level also missed (it then adds a memory read)."""
        caches = make_caches()
        fill(caches, 0x1000, fake_walk_pages())
        caches.l3.flush()
        # L3 miss, L2 hit: only m3 counted.
        caches.probe(0x1000, fake_walk_pages())
        assert caches.counted_misses == {1: 0, 2: 0, 3: 1}

    def test_fill_populates_all_levels(self):
        """A probe refills every level from the walk, hit or miss."""
        caches = make_caches()
        caches.probe(0x1000, fake_walk_pages())
        assert caches.l1.contains(0x1000)
        assert caches.l2.contains(0x1000)
        assert caches.l3.contains(0x1000)
        assert caches.probe(0x1000, fake_walk_pages()).memory_reads == 1
        assert [c.hits for c in caches.levels] == [1, 1, 1]
        assert [c.misses for c in caches.levels] == [1, 1, 1]

    def test_probe_refill_matches_lookup_then_insert(self):
        """One pass per level leaves each cache as a lookup followed by
        an insert of the walk's page would: same LRU order, same
        evictions, same counters."""
        regions = [0, 3, 1, 3, 5, 0, 7, 1, 9, 3]
        fused = PtCache(level=3, entries=3)
        split = PtCache(level=3, entries=3)
        for step, region in enumerate(regions):
            iova = region << LEVEL_SHIFTS[3]
            page = f"p{step}"
            hit = fused.refill(iova, page)
            assert hit == (split.lookup(iova) is not None)
            split.insert(iova, page)
            assert list(fused._entries.items()) == list(split._entries.items())
        assert (fused.hits, fused.misses, fused.evictions) == (
            split.hits,
            split.misses,
            split.evictions,
        )

    def test_invalidate_range_hits_all_levels(self):
        """Linux's unmap behaviour: one page's invalidation drops the
        covering entry at every level — the root cause of the paper's
        PTcache-L1/L2 misses."""
        caches = make_caches()
        fill(caches, 0x1000, fake_walk_pages())
        dropped = caches.invalidate_range(0x1000, 4096)
        assert dropped == 3
        outcome = caches.probe(0x1000, fake_walk_pages())
        assert outcome.memory_reads == 4

    def test_shared_entries_across_nearby_iovas(self):
        """Two IOVAs in the same 2 MB region share all PTcache entries —
        the locality F&S's contiguous allocation creates."""
        caches = make_caches()
        fill(caches, 0x1000, fake_walk_pages())
        outcome = caches.probe(0x1000 + 64 * 4096, fake_walk_pages())
        assert outcome.deepest_hit_level == 3
