"""Property-based tests (hypothesis) for the IOMMU data structures."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.iommu import IOPageTable, Iommu, IommuConfig, Iotlb, PtCache
from repro.iommu.addr import PAGE_SIZE


# ----------------------------------------------------------------------
# IOTLB vs a reference model
# ----------------------------------------------------------------------
class ReferenceLru:
    """Straightforward per-set LRU reference for the IOTLB."""

    def __init__(self, sets, ways):
        self.sets = [dict() for _ in range(sets)]
        self.ways = ways

    def lookup(self, page):
        entry_set = self.sets[page % len(self.sets)]
        if page in entry_set:
            value = entry_set.pop(page)
            entry_set[page] = value
            return value
        return None

    def insert(self, page, frame):
        entry_set = self.sets[page % len(self.sets)]
        if page in entry_set:
            del entry_set[page]
        elif len(entry_set) >= self.ways:
            del entry_set[next(iter(entry_set))]
        entry_set[page] = frame

    def invalidate(self, page):
        entry_set = self.sets[page % len(self.sets)]
        entry_set.pop(page, None)


@st.composite
def iotlb_ops(draw):
    ops = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["lookup", "insert", "invalidate"]),
                st.integers(min_value=0, max_value=40),
            ),
            max_size=200,
        )
    )
    return ops


@given(iotlb_ops())
@settings(max_examples=80, deadline=None)
def test_iotlb_matches_reference_lru(ops):
    tlb = Iotlb(entries=16, ways=4)
    reference = ReferenceLru(sets=4, ways=4)
    for op, page in ops:
        iova = page * PAGE_SIZE
        if op == "lookup":
            assert tlb.lookup(iova) == reference.lookup(page)
        elif op == "insert":
            tlb.insert(iova, page + 1000)
            reference.insert(page, page + 1000)
        else:
            tlb.invalidate_range(iova, PAGE_SIZE)
            reference.invalidate(page)


@given(st.lists(st.integers(min_value=0, max_value=500), max_size=300))
@settings(max_examples=50, deadline=None)
def test_iotlb_never_exceeds_capacity(pages):
    tlb = Iotlb(entries=32, ways=8)
    for page in pages:
        tlb.insert(page * PAGE_SIZE, page)
        assert tlb.resident_entries <= 32


# ----------------------------------------------------------------------
# PTcache capacity and coverage
# ----------------------------------------------------------------------
@given(st.lists(st.integers(min_value=0, max_value=300), max_size=300))
@settings(max_examples=50, deadline=None)
def test_ptcache_never_exceeds_capacity(regions):
    cache = PtCache(level=3, entries=16)
    for region in regions:
        cache.insert(region << 21, f"page{region}")
        assert cache.resident_entries <= 16


@given(
    st.lists(
        st.integers(min_value=0, max_value=15),
        min_size=1,
        max_size=16,
        unique=True,
    )
)
@settings(max_examples=30, deadline=None)
def test_ptcache_within_capacity_never_evicts(regions):
    cache = PtCache(level=3, entries=16)
    for region in regions:
        cache.insert(region << 21, region)
    for region in regions:
        assert cache.lookup(region << 21) == region
    assert cache.evictions == 0


# ----------------------------------------------------------------------
# Page table invariants under map/unmap churn
# ----------------------------------------------------------------------
@st.composite
def map_unmap_ops(draw):
    ops = []
    mapped = set()
    count = draw(st.integers(min_value=1, max_value=120))
    for _ in range(count):
        if mapped and draw(st.booleans()):
            page = draw(st.sampled_from(sorted(mapped)))
            mapped.remove(page)
            ops.append(("unmap", page))
        else:
            page = draw(st.integers(min_value=0, max_value=2000))
            if page not in mapped:
                mapped.add(page)
                ops.append(("map", page))
    return ops


@given(map_unmap_ops())
@settings(max_examples=60, deadline=None)
def test_page_table_lookup_consistency(ops):
    """After any churn, exactly the currently mapped pages translate."""
    table = IOPageTable()
    live = {}
    for op, page in ops:
        iova = page * PAGE_SIZE
        if op == "map":
            table.map_page(iova, page + 7)
            live[page] = page + 7
        else:
            table.unmap_page(iova)
            del live[page]
    for page, frame in live.items():
        assert table.lookup(page * PAGE_SIZE) == frame
    assert table.mapped_pages == len(live)
    # A sample of unmapped pages does not translate.
    for page in range(0, 2000, 97):
        if page not in live:
            assert table.lookup(page * PAGE_SIZE) is None


@given(map_unmap_ops())
@settings(max_examples=40, deadline=None)
def test_page_granular_unmaps_never_reclaim(ops):
    """Fig 5d as a property: single-page unmaps never reclaim PT pages
    no matter the interleaving."""
    table = IOPageTable()
    for op, page in ops:
        iova = page * PAGE_SIZE
        if op == "map":
            table.map_page(iova, 1)
        else:
            reclaimed = table.unmap_page(iova)
            assert reclaimed == []
    assert table.stats.pages_reclaimed == 0


# ----------------------------------------------------------------------
# Translation cost invariants
# ----------------------------------------------------------------------
@given(
    st.lists(
        st.integers(min_value=0, max_value=63),
        min_size=1,
        max_size=200,
    )
)
@settings(max_examples=40, deadline=None)
def test_memory_reads_bounded_one_to_four(accesses):
    """Every walk costs between 1 and 4 reads; IOTLB hits cost 0; and
    the paper's accounting identity M = iotlb + m1 + m2 + m3 holds."""
    iommu = Iommu(IommuConfig())
    base = 0x5000_0000
    for page in range(64):
        iommu.map_page(base + page * PAGE_SIZE, page)
    for page in accesses:
        result = iommu.translate(base + page * PAGE_SIZE)
        if result.iotlb_hit:
            assert result.memory_reads == 0
        else:
            assert 1 <= result.memory_reads <= 4
    stats = iommu.stats
    assert stats.memory_reads == sum(
        stats.ptcache_counted_misses.values()
    ) + (
        stats.iotlb_misses  # each walk reads at least the PT-L4 entry
    )
