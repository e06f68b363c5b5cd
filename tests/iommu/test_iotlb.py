"""Unit tests for the IOTLB."""

import pytest

from repro.iommu import Iotlb
from repro.iommu.addr import PAGE_SIZE


def test_miss_then_hit():
    tlb = Iotlb(entries=8, ways=2)
    assert tlb.lookup(0x1000) is None
    tlb.insert(0x1000, 42)
    assert tlb.lookup(0x1000) == 42
    assert tlb.hits == 1
    assert tlb.misses == 1


def test_offset_within_page_hits_same_entry():
    tlb = Iotlb(entries=8, ways=2)
    tlb.insert(0x1000, 42)
    assert tlb.lookup(0x1FFF) == 42


def test_lru_eviction_within_set():
    tlb = Iotlb(entries=4, ways=2)  # 2 sets
    # Pages 0 and 2 map to set 0 (even page numbers).
    tlb.insert(0 * PAGE_SIZE, 10)
    tlb.insert(2 * PAGE_SIZE, 20)
    # Touch page 0 so page 2 becomes LRU.
    assert tlb.lookup(0) == 10
    tlb.insert(4 * PAGE_SIZE, 30)  # evicts page 2
    assert tlb.lookup(2 * PAGE_SIZE) is None
    assert tlb.lookup(0) == 10
    assert tlb.evictions == 1


def test_set_isolation():
    tlb = Iotlb(entries=4, ways=2)
    # Odd pages land in set 1 and cannot evict even pages.
    tlb.insert(0 * PAGE_SIZE, 1)
    tlb.insert(1 * PAGE_SIZE, 2)
    tlb.insert(3 * PAGE_SIZE, 3)
    tlb.insert(5 * PAGE_SIZE, 4)  # evicts page 1, not page 0
    assert tlb.lookup(0) == 1
    assert tlb.lookup(1 * PAGE_SIZE) is None


def test_invalidate_page():
    tlb = Iotlb(entries=8, ways=2)
    tlb.insert(0x5000, 7)
    assert tlb.invalidate_range(0x5000, PAGE_SIZE) == 1
    assert tlb.invalidate_range(0x5000, PAGE_SIZE) == 0
    assert tlb.lookup(0x5000) is None


def test_invalidate_range_drops_all_covered():
    tlb = Iotlb(entries=64, ways=4)
    for page in range(10):
        tlb.insert(page * PAGE_SIZE, page)
    dropped = tlb.invalidate_range(2 * PAGE_SIZE, 3 * PAGE_SIZE)
    assert dropped == 3
    assert tlb.lookup(1 * PAGE_SIZE) == 1
    assert tlb.lookup(2 * PAGE_SIZE) is None
    assert tlb.lookup(4 * PAGE_SIZE) is None
    assert tlb.lookup(5 * PAGE_SIZE) == 5


def test_invalidate_huge_range_uses_scan_path():
    tlb = Iotlb(entries=8, ways=2)
    tlb.insert(0x1000, 1)
    tlb.insert(0x100000, 2)
    dropped = tlb.invalidate_range(0, 1 << 30)
    assert dropped == 2
    assert tlb.resident_entries == 0


def test_flush_clears_everything():
    tlb = Iotlb(entries=8, ways=2)
    for page in range(4):
        tlb.insert(page * PAGE_SIZE, page)
    assert tlb.flush() == 4
    assert tlb.resident_entries == 0


def test_reinsert_updates_frame():
    tlb = Iotlb(entries=8, ways=2)
    tlb.insert(0x1000, 1)
    tlb.insert(0x1000, 2)
    assert tlb.lookup(0x1000) == 2
    assert tlb.resident_entries == 1


def test_geometry_validation():
    with pytest.raises(ValueError):
        Iotlb(entries=10, ways=4)
    with pytest.raises(ValueError):
        Iotlb(entries=0, ways=1)


def test_miss_rate():
    tlb = Iotlb(entries=8, ways=2)
    tlb.lookup(0x1000)
    tlb.insert(0x1000, 1)
    tlb.lookup(0x1000)
    assert tlb.miss_rate == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# Huge-entry interaction with page-granule invalidation (regression: a
# one-page invalidation used to leave a covering 2 MB entry resident).
# ---------------------------------------------------------------------------
def test_invalidate_page_drops_covering_huge_entry():
    tlb = Iotlb(entries=8, ways=2)
    tlb.insert_huge(0, 1000)
    assert tlb.lookup(0x3000) == 1003
    # A 4 KB-granule invalidation inside the huge region must drop the
    # covering 2 MB entry: afterwards no address in the region hits.
    assert tlb.invalidate_range(0x3000, PAGE_SIZE) == 1
    assert tlb.lookup(0x3000) is None
    assert tlb.lookup(0x0) is None
    assert tlb.lookup(0x1FF000) is None
    assert not tlb.contains(0x3000)


def test_invalidate_page_drops_both_4k_and_huge():
    tlb = Iotlb(entries=8, ways=2)
    tlb.insert(0x3000, 7)
    tlb.insert_huge(0, 1000)
    assert tlb.invalidate_range(0x3000, PAGE_SIZE) == 2
    assert tlb.invalidations == 2
    assert tlb.resident_entries == 0


def test_invalidate_page_misses_other_huge_regions():
    tlb = Iotlb(entries=8, ways=2)
    tlb.insert_huge(0, 1000)
    tlb.insert_huge(2 << 20, 2000)
    assert tlb.invalidate_range(0x3000, PAGE_SIZE) == 1
    assert tlb.lookup(0x3000) is None
    # The neighbouring region's entry must survive.
    assert tlb.lookup((2 << 20) + 0x1000) == 2001


def test_invalidate_range_mixed_4k_and_huge():
    tlb = Iotlb(entries=64, ways=4)
    # 4 KB entries straddling the range boundary plus two huge regions.
    tlb.insert(0x1000, 1)
    tlb.insert((2 << 20) + 0x1000, 2)
    tlb.insert_huge(0, 1000)
    tlb.insert_huge(2 << 20, 2000)
    dropped = tlb.invalidate_range(0, 2 << 20)
    # First huge region + its 4 KB entry; second region untouched.
    assert dropped == 2
    assert tlb.lookup(0x1000) is None
    assert tlb.lookup((2 << 20) + 0x1000) == 2
    assert tlb.contains(2 << 20)


def test_invalidate_range_partial_huge_overlap_drops_entry():
    tlb = Iotlb(entries=8, ways=2)
    tlb.insert_huge(0, 1000)
    # Any overlap with the 2 MB region drops the whole entry (a huge
    # translation cannot be partially invalidated).
    assert tlb.invalidate_range(0x1FF000, PAGE_SIZE) == 1
    assert tlb.lookup(0) is None
