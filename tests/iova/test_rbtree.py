"""Unit and property tests for the rbtree slow path's range index.

Linux keeps allocated IOVA ranges in a red-black tree;
:class:`~repro.iova.IovaRangeIndex` keeps them in sorted blocks with a
per-block largest gap.  The reference here is the tree walk itself,
written over a plain sorted list: for every allocation the index must
return the same range and the same number of ranges passed, and the
cached scan node must move the same way.
"""

import bisect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.iommu.addr import PAGE_SHIFT
from repro.iova import (
    IovaExhaustedError,
    IovaRangeIndex,
    RbTreeIovaAllocator,
)
from repro.iova.allocator import SCAN_STEP_NS, TREE_OP_NS
from repro.iova.rangeindex import BLOCK


def build_index(ranges):
    index = IovaRangeIndex()
    for lo, hi in ranges:
        index.insert(lo, hi)
    return index


class TestBasics:
    def test_empty(self):
        index = IovaRangeIndex()
        assert len(index) == 0
        assert list(index) == []
        assert index.find(0) is None
        assert index.find_containing(0) is None
        assert index.scan_down(None, 0xFF, 1, 1) == (0xFF, 0)

    def test_insert_and_find(self):
        index = build_index([(10, 19), (30, 39), (0, 4)])
        assert index.find(10) == 19
        assert index.find(30) == 39
        assert index.find(20) is None
        assert len(index) == 3

    def test_find_containing(self):
        index = build_index([(10, 19), (30, 39)])
        assert index.find_containing(15) == (10, 19)
        assert index.find_containing(39) == (30, 39)
        assert index.find_containing(25) is None
        assert index.find_containing(5) is None

    def test_inorder_iteration_sorted(self):
        index = build_index([(50, 59), (10, 19), (30, 39)])
        assert list(index) == [(10, 19), (30, 39), (50, 59)]

    def test_delete(self):
        index = build_index([(10, 19), (30, 39), (50, 59)])
        # Deleting returns the next higher range's start.
        assert index.delete(30, 39) == 50
        assert index.find(30) is None
        assert list(index) == [(10, 19), (50, 59)]
        assert index.delete(50, 59) is None
        index.check_invariants()
        with pytest.raises(KeyError):
            index.delete(30, 39)
        with pytest.raises(KeyError):
            index.delete(10, 18)  # not the indexed range: nothing removed
        assert list(index) == [(10, 19)]

    def test_build_in_one_pass_equals_inserts(self):
        ranges = [(lo * 3, lo * 3 + 1) for lo in range(5 * BLOCK)]
        built = IovaRangeIndex(ranges)
        built.check_invariants()
        assert list(built) == ranges == list(build_index(ranges))

    def test_blocks_split_and_merge(self):
        index = build_index((lo * 2, lo * 2) for lo in range(10 * BLOCK))
        index.check_invariants()
        assert len(index._los) > 5
        for lo in range(10 * BLOCK - 1):
            index.delete(lo * 2, lo * 2)
            index.check_invariants()
        assert list(index) == [((10 * BLOCK - 1) * 2,) * 2]
        assert len(index._los) == 1


class TestScan:
    def test_skipped_blocks_count_as_steps(self):
        # 1000 single-pfn ranges with 1-pfn holes: a 2-pfn request
        # passes every range but the lowest from the top one down, and
        # the top one too when scanning from the limit.
        ranges = [(lo, lo) for lo in range(1000, 3000, 2)]
        index = IovaRangeIndex(ranges)
        assert index.scan_down(2998, 0xFFFF, 1, 1) == (2997, 0)
        assert index.scan_down(2998, 0xFFFF, 2, 1) == (998, 999)
        assert index.scan_down(None, 2998, 2, 1) == (998, 1000)
        assert index.scan_down(None, 0xFFFF, 2, 1) == (0xFFFE, 0)

    def test_aligned_scan_passes_unaligned_gaps(self):
        index = IovaRangeIndex([(0, 9), (100, 199), (300, 399)])
        # The holes [200, 299] and [10, 99] both have room for 64 pages
        # but neither holds a 64-aligned run of 64.
        assert index.scan_down(300, 0xFFF, 64, 64) is None
        assert index.scan_down(300, 0xFFF, 32, 32) == (256, 0)
        assert index.scan_down(None, 0x2FF, 512, 512) is None
        assert index.scan_down(None, 0x5FF, 512, 512) == (1024, 0)


class TestInvariantChecker:
    def test_detects_stale_gap(self):
        index = build_index([(10, 19), (30, 39)])
        index._gaps[0][1] += 1
        with pytest.raises(AssertionError):
            index.check_invariants()

    def test_detects_overlap(self):
        index = build_index([(10, 19)])
        index.insert(15, 25)
        with pytest.raises(AssertionError):
            index.check_invariants()


@st.composite
def operation_sequences(draw):
    """Sequences of insert/delete ops over disjoint unit ranges."""
    keys = draw(
        st.lists(
            st.integers(min_value=0, max_value=10_000),
            min_size=1,
            max_size=400,
            unique=True,
        )
    )
    ops = []
    inserted = []
    for key in keys:
        ops.append(("insert", key))
        inserted.append(key)
        if inserted and draw(st.booleans()):
            victim = draw(st.sampled_from(inserted))
            inserted.remove(victim)
            ops.append(("delete", victim))
    return ops


@given(operation_sequences())
@settings(max_examples=60, deadline=None)
def test_invariants_hold_under_churn(ops):
    """After every operation the ordering and block invariants hold."""
    index = IovaRangeIndex()
    live = set()
    for action, key in ops:
        lo = key * 2  # keep ranges disjoint
        if action == "insert":
            index.insert(lo, lo + 1)
            live.add(key)
        else:
            above = [other * 2 for other in live if other > key]
            assert index.delete(lo, lo + 1) == (min(above) if above else None)
            live.discard(key)
        index.check_invariants()
        assert len(index) == len(live)
    assert sorted(lo // 2 for lo, _ in index) == sorted(live)


@given(
    st.lists(
        st.integers(min_value=0, max_value=1_000),
        min_size=1,
        max_size=200,
        unique=True,
    )
)
@settings(max_examples=40, deadline=None)
def test_inorder_matches_sorted_insertion(keys):
    index = IovaRangeIndex()
    for key in keys:
        index.insert(key * 3, key * 3 + 1)
    assert [lo for lo, _ in index] == sorted(key * 3 for key in keys)
    index.check_invariants()


class TreeWalk:
    """Linux's slow path over a plain sorted list: the reference."""

    def __init__(self, limit_pfn):
        self.limit_pfn = limit_pfn
        self.ranges = []
        self.cached = None

    def scan_down(self, start, pages, align):
        mask = ~(align - 1)
        if start is None:
            prev_lo, at = self.limit_pfn + 1, len(self.ranges) - 1
        else:
            prev_lo = start
            at = bisect.bisect_left(self.ranges, (start,)) - 1
        steps = 0
        while at >= 0:
            candidate = (prev_lo - pages) & mask
            if candidate > self.ranges[at][1]:
                return candidate, steps
            prev_lo = self.ranges[at][0]
            at -= 1
            steps += 1
        candidate = (prev_lo - pages) & mask
        return (candidate, steps) if candidate >= 0 else None

    def alloc(self, pages, align):
        """Returns ``(pfn_lo or None, steps, retried)``."""
        found = self.scan_down(self.cached, pages, align)
        retried = found is None and self.cached is not None
        if retried:
            found = self.scan_down(None, pages, align)
        if found is None:
            return None, 0, retried
        pfn_lo, steps = found
        bisect.insort(self.ranges, (pfn_lo, pfn_lo + pages - 1))
        self.cached = pfn_lo
        return pfn_lo, steps, retried

    def free(self, pfn_lo):
        at = bisect.bisect_left(self.ranges, (pfn_lo,))
        if self.cached is not None and pfn_lo >= self.cached:
            higher = at + 1 < len(self.ranges)
            self.cached = self.ranges[at + 1][0] if higher else None
        del self.ranges[at]


@given(
    st.lists(
        st.tuples(
            st.sampled_from([1, 1, 2, 3, 8, 64]),
            st.sampled_from([1, 1, 1, 8, 64]),
            st.floats(min_value=0.0, max_value=1.0),
        ),
        min_size=1,
        max_size=500,
    ),
    st.sampled_from([0x3FF, 0xFFF, 0x2FFF]),
)
@settings(max_examples=50, deadline=None)
def test_allocator_matches_the_tree_walk(ops, limit_pfn):
    """pfn_lo, steps (as charged scan cost) and the cached node under
    churn: allocations of mixed sizes and alignments, retries from the
    top, exhaustion, and frees above and below the cached node."""
    allocator = RbTreeIovaAllocator(limit_pfn=limit_pfn)
    reference = TreeWalk(limit_pfn)
    live = []
    for pages, align, pick in ops:
        if live and pick < 0.4:
            pfn_lo = live.pop(int(pick * 2.5 * len(live)) % len(live))
            pages = allocator.tree.find(pfn_lo) - pfn_lo + 1
            allocator.free(pfn_lo << PAGE_SHIFT, pages)
            reference.free(pfn_lo)
        else:
            before = allocator.cpu_ns_by_core.get(0, 0.0)
            ranges = len(reference.ranges)
            expected, steps, retried = reference.alloc(pages, align)
            try:
                pfn_lo = allocator.alloc(pages, align_pages=align) >> PAGE_SHIFT
            except IovaExhaustedError:
                pfn_lo = None
            assert pfn_lo == expected
            charged = allocator.cpu_ns_by_core[0] - before
            passed = steps + (min(ranges, 64) if retried else 0)
            assert charged == TREE_OP_NS + SCAN_STEP_NS * passed
            if pfn_lo is not None:
                live.append(pfn_lo)
        assert allocator._cached == reference.cached
        assert list(allocator.tree) == reference.ranges
    allocator.tree.check_invariants()
