"""Unit and property tests for the rbtree-backed IOVA allocator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.iommu.addr import PAGE_SIZE
from repro.iova import IovaExhaustedError, RbTreeIovaAllocator
from repro.iova.allocator import SCAN_STEP_NS, TREE_OP_NS


class TestTopDownAllocation:
    def test_allocates_from_top_of_space(self):
        alloc = RbTreeIovaAllocator(limit_pfn=0xFF)
        iova = alloc.alloc(1)
        assert iova == 0xFF * PAGE_SIZE

    def test_consecutive_allocations_descend_compactly(self):
        """Linux-style: active IOVAs pack from the top of the space —
        the compactness §2.2 relies on for the PTcache-L1/L2 argument."""
        alloc = RbTreeIovaAllocator(limit_pfn=0xFF)
        first = alloc.alloc(1)
        second = alloc.alloc(1)
        third = alloc.alloc(2)
        assert second == first - PAGE_SIZE
        assert third == second - 2 * PAGE_SIZE

    def test_free_reopens_gap(self):
        alloc = RbTreeIovaAllocator(limit_pfn=0xFF)
        first = alloc.alloc(4)
        alloc.alloc(4)
        alloc.free(first, 4)
        assert alloc.alloc(4) == first

    def test_gap_scan_skips_too_small_gaps(self):
        alloc = RbTreeIovaAllocator(limit_pfn=0xFF)
        top = alloc.alloc(2)
        middle = alloc.alloc(2)
        bottom = alloc.alloc(2)
        alloc.free(middle, 2)
        # A 2-page request reuses the hole (the cached scan position
        # moved up to the hole's upper neighbour on free) ...
        assert alloc.alloc(2) == middle
        alloc.free(middle, 2)
        # ... but a 3-page request cannot fit in it and descends.
        iova = alloc.alloc(3)
        assert iova < bottom
        assert top  # silence linters

    def test_cached_scan_skips_holes_above(self):
        """Linux cached-node semantics: holes that open above the scan
        position after later allocations are not revisited until the
        downward scan fails."""
        alloc = RbTreeIovaAllocator(limit_pfn=0xFF)
        top = alloc.alloc(2)
        alloc.alloc(2)  # middle-ish
        alloc.free(top, 2)  # hole above; cached moves to top's successor
        lower = alloc.alloc(1)  # takes part of the hole region
        assert lower == top + PAGE_SIZE  # hole found via updated cache
        even_lower = alloc.alloc(1)
        assert even_lower == top

    def test_exhaustion_raises(self):
        alloc = RbTreeIovaAllocator(limit_pfn=3)  # 4 pages total
        alloc.alloc(4)
        with pytest.raises(IovaExhaustedError):
            alloc.alloc(1)

    def test_exhaustion_with_fragmentation(self):
        alloc = RbTreeIovaAllocator(limit_pfn=3)
        keep = alloc.alloc(1)
        middle = alloc.alloc(1)
        alloc.alloc(2)
        alloc.free(middle, 1)
        with pytest.raises(IovaExhaustedError):
            alloc.alloc(2)
        assert keep

    def test_zero_pages_rejected(self):
        with pytest.raises(ValueError):
            RbTreeIovaAllocator().alloc(0)


class TestFreeValidation:
    def test_free_unallocated_raises(self):
        alloc = RbTreeIovaAllocator()
        with pytest.raises(ValueError):
            alloc.free(0x1000, 1)

    def test_free_wrong_size_raises(self):
        alloc = RbTreeIovaAllocator()
        iova = alloc.alloc(4)
        with pytest.raises(ValueError):
            alloc.free(iova, 2)

    def test_double_free_raises(self):
        alloc = RbTreeIovaAllocator()
        iova = alloc.alloc(1)
        alloc.free(iova, 1)
        with pytest.raises(ValueError):
            alloc.free(iova, 1)


class TestAccounting:
    def test_cpu_cost_charged_per_core(self):
        alloc = RbTreeIovaAllocator()
        alloc.alloc(1, cpu=0)
        alloc.alloc(1, cpu=1)
        iova = alloc.alloc(1, cpu=1)
        alloc.free(iova, 1, cpu=1)
        assert alloc.cpu_ns_by_core[0] == pytest.approx(TREE_OP_NS)
        assert alloc.cpu_ns_by_core[1] >= 3 * TREE_OP_NS
        assert alloc.total_cpu_ns >= 4 * TREE_OP_NS

    def test_scan_cost_grows_with_fragmentation(self):
        alloc = RbTreeIovaAllocator()
        blocks = [alloc.alloc(1, cpu=0) for _ in range(50)]
        # Free the topmost block: the cached scan position resets to
        # the top, and a size-2 request (which cannot fit the 1-page
        # hole) must now scan past every live range — the worst-case
        # linear search §2.1 describes.
        alloc.free(blocks[0], 1, cpu=0)
        before = alloc.cpu_ns_by_core[0]
        alloc.alloc(2, cpu=0)
        scan_cost = alloc.cpu_ns_by_core[0] - before
        assert scan_cost > TREE_OP_NS + SCAN_STEP_NS * 40

    def test_cached_scan_keeps_common_case_cheap(self):
        """With the cached node, back-to-back allocations do not rescan
        the fragmented space above (the Linux optimization F&S's chunk
        allocations rely on)."""
        alloc = RbTreeIovaAllocator()
        for _ in range(200):
            alloc.alloc(1, cpu=0)
        before = alloc.cpu_ns_by_core[0]
        alloc.alloc(64, cpu=0)
        assert alloc.cpu_ns_by_core[0] - before <= TREE_OP_NS + SCAN_STEP_NS

    def test_trace_records_allocations(self):
        trace = []
        alloc = RbTreeIovaAllocator(trace=trace)
        a = alloc.alloc(1)
        b = alloc.alloc(64)
        assert trace == [(a, 1), (b, 64)]

    def test_allocated_pages_counter(self):
        alloc = RbTreeIovaAllocator()
        iova = alloc.alloc(8)
        assert alloc.allocated_pages == 8
        alloc.free(iova, 8)
        assert alloc.allocated_pages == 0

    def test_is_allocated(self):
        alloc = RbTreeIovaAllocator()
        iova = alloc.alloc(2)
        assert alloc.is_allocated(iova)
        assert alloc.is_allocated(iova + PAGE_SIZE)
        assert not alloc.is_allocated(iova - PAGE_SIZE)


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=64),
            st.booleans(),
        ),
        min_size=1,
        max_size=100,
    )
)
@settings(max_examples=50, deadline=None)
def test_allocations_never_overlap(ops):
    """Property: live allocations are always pairwise disjoint and the
    rbtree invariants hold throughout alloc/free churn."""
    alloc = RbTreeIovaAllocator()
    live: list[tuple[int, int]] = []
    for pages, should_free in ops:
        iova = alloc.alloc(pages)
        live.append((iova, pages))
        if should_free and len(live) > 1:
            victim = live.pop(0)
            alloc.free(victim[0], victim[1])
        # Check pairwise disjointness.
        intervals = sorted(
            (iova, iova + pages * PAGE_SIZE) for iova, pages in live
        )
        for (_, end), (start, _) in zip(intervals, intervals[1:]):
            assert end <= start
        alloc.tree.check_invariants()
