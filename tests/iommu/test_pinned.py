"""Pinned behaviour of the IOMMU model's miss and unmap paths.

The per-page translate/walk/PTcache/unmap code is written for speed, so
this file pins what it must keep doing, with numbers recorded from the
plain per-level implementation:

* every counter of six micro-scale cells (strict, F&S and deferred
  Rx, F&S with 2 MB mappings, strict Rx+Tx, strict Rx with a
  fault-reporting queue), identical with and without the invariant
  monitor, which sends every TLP through ``translate``;
* the order of PTcache hit events within one walk;
* ``unmap_range`` across PT-L4 pages, into holes, over huge leaves and
  over whole page-table pages: the error, the prefix it leaves cleared,
  the counters and the order of the reclaimed pages.
"""

import pytest

from repro.context import using
from repro.host.config import HostConfig
from repro.host.testbed import Testbed
from repro.iommu import Iommu, IommuConfig, IOPageTable, MappingError
from repro.iommu.addr import PAGE_SIZE, PTL4_PAGE_SIZE
from repro.verify import InvariantMonitor
from repro.verify.events import PtCacheHitEvent, PtPageReclaimedEvent

GB = 1 << 30
WARMUP_NS = 800_000.0
MEASURE_NS = 1_500_000.0

# (cell, mode) -> counters after a micro run.  ``events``: executed
# simulator events (these fell by a third when the switch port and the
# peer stopped spending events on serialization ends and processing
# delays; every IOMMU counter stayed).  ``iommu``: translations,
# IOTLB hits, IOTLB misses, walks, memory reads, counted PTcache misses
# (m1/m2/m3), faults, invalidation requests, PTcache invalidation
# requests.  ``ptcache``:
# hits, misses, evictions, invalidations for L1, L2, L3.  ``iotlb``:
# hits, misses, evictions, invalidations.  ``pagetable``: maps, unmaps,
# pages created, pages reclaimed, reclaims by level.
PINNED = {
    ("rx", "strict"): {
        "events": 10712,
        "iommu": [
            68885, 63930, 4955, 4955, 7654, {1: 350, 2: 350, 3: 1999},
            0, 4789, 4789,
        ],
        "ptcache": [
            [4380, 575, 0, 574], [4380, 575, 0, 574], [2956, 1999, 0, 1986],
        ],
        "iotlb": [63930, 4955, 1438, 3430],
        "pagetable": [7349, 4789, 34, 0, {1: 0, 2: 0, 3: 0, 4: 0}],
    },
    ("rx", "fns"): {
        "events": 16563,
        "iommu": [
            112652, 104925, 7727, 7727, 7736, {1: 1, 2: 1, 3: 7},
            0, 839, 0,
        ],
        "ptcache": [[7726, 1, 0, 0], [7726, 1, 0, 0], [7720, 7, 0, 0]],
        "iotlb": [104925, 7727, 3323, 4279],
        "pagetable": [10140, 7580, 9, 0, {1: 0, 2: 0, 3: 0, 4: 0}],
    },
    ("rx", "fns-huge"): {
        "events": 16250,
        "iommu": [
            112544, 111840, 704, 704, 711, {1: 1, 2: 1, 3: 5},
            0, 699, 0,
        ],
        "ptcache": [[703, 1, 0, 0], [703, 1, 0, 0], [683, 5, 0, 0]],
        "iotlb": [111840, 704, 0, 699],
        "pagetable": [709, 699, 7, 0, {1: 0, 2: 0, 3: 0, 4: 0}],
    },
    ("bidir", "strict"): {
        "events": 10086,
        "iommu": [
            61788, 56880, 4908, 4908, 9307, {1: 1020, 2: 1020, 3: 2359},
            0, 4801, 4801,
        ],
        "ptcache": [
            [3286, 1622, 0, 1621], [3286, 1622, 0, 1621], [2549, 2359, 0, 2338],
        ],
        "iotlb": [56880, 4908, 1438, 3371],
        "pagetable": [5840, 4801, 34, 0, {1: 0, 2: 0, 3: 0, 4: 0}],
    },
    # Deferred mode checks every IOTLB hit for staleness, and a fault
    # queue may abort any TLP: both once took the per-TLP loop in
    # unmonitored runs too.
    ("rx", "deferred"): {
        "events": 16451,
        "iommu": [
            112428, 104775, 7653, 7653, 8570, {1: 27, 2: 27, 3: 863},
            0, 26, 26,
        ],
        "ptcache": [[7626, 27, 0, 26], [7626, 27, 0, 26], [6790, 863, 0, 831]],
        "iotlb": [104775, 7653, 4209, 3319],
        "pagetable": [10012, 7452, 34, 0, {1: 0, 2: 0, 3: 0, 4: 0}],
    },
    ("rx-faultq", "strict"): {
        "events": 10712,
        "iommu": [
            68885, 63930, 4955, 4955, 7654, {1: 350, 2: 350, 3: 1999},
            0, 4789, 4789,
        ],
        "ptcache": [
            [4380, 575, 0, 574], [4380, 575, 0, 574], [2956, 1999, 0, 1986],
        ],
        "iotlb": [63930, 4955, 1438, 3430],
        "pagetable": [7349, 4789, 34, 0, {1: 0, 2: 0, 3: 0, 4: 0}],
    },
}


def cell_counters(kind, mode):
    if kind == "rx":
        testbed = Testbed(HostConfig.cascade_lake(mode=mode))
        testbed.add_rx_flows(5)
    elif kind == "rx-faultq":
        testbed = Testbed(
            HostConfig.cascade_lake(
                mode=mode, iommu=IommuConfig(fault_queue=True)
            )
        )
        testbed.add_rx_flows(5)
    else:
        testbed = Testbed(HostConfig.ice_lake(mode=mode, num_cores=2))
        testbed.add_rx_flows(1, cores=[0])
        testbed.add_tx_flows(1, cores=[1])
    testbed.run(warmup_ns=WARMUP_NS, measure_ns=MEASURE_NS)
    iommu = testbed.host.iommu
    stats = iommu.stats
    table = iommu.page_table.stats
    iotlb = iommu.iotlb
    return {
        "events": testbed.sim.executed_events,
        "iommu": [
            stats.translations,
            stats.iotlb_hits,
            stats.iotlb_misses,
            stats.walks,
            stats.memory_reads,
            dict(stats.ptcache_counted_misses),
            stats.faults,
            stats.invalidation_requests,
            stats.ptcache_invalidation_requests,
        ],
        "ptcache": [
            [cache.hits, cache.misses, cache.evictions, cache.invalidations]
            for cache in iommu.ptcaches.levels
        ],
        "iotlb": [iotlb.hits, iotlb.misses, iotlb.evictions, iotlb.invalidations],
        "pagetable": [
            table.maps,
            table.unmaps,
            table.pages_created,
            table.pages_reclaimed,
            dict(table.reclaims_by_level),
        ],
    }


@pytest.mark.parametrize("monitored", [False, True], ids=["burst", "monitored"])
@pytest.mark.parametrize("cell", sorted(PINNED), ids="-".join)
def test_cell_counters_pinned(cell, monitored):
    if monitored:
        with using(monitor=InvariantMonitor()):
            counters = cell_counters(*cell)
    else:
        counters = cell_counters(*cell)
    assert counters == PINNED[cell]


class Recorder:
    """A stand-in monitor that keeps every event it is handed."""

    def __init__(self):
        self.events = []

    def record(self, event, owner=0):
        self.events.append(event)


def test_ptcache_hit_events_deepest_level_first():
    recorder = Recorder()
    with using(monitor=recorder):
        iommu = Iommu()
    base = 3 * GB
    iommu.map_range(base, [10, 11])
    iommu.translate(base)
    iommu.iotlb.flush()
    # L3, then L2, then L1: the order the hierarchy probes in.
    del recorder.events[:]
    assert iommu.translate(base + PAGE_SIZE).memory_reads == 1
    hits = [e for e in recorder.events if isinstance(e, PtCacheHitEvent)]
    assert [(e.level, e.iova) for e in hits] == [
        (3, base + PAGE_SIZE),
        (2, base + PAGE_SIZE),
        (1, base + PAGE_SIZE),
    ]
    table = iommu.page_table
    walk = table.walk(base)
    assert [e.page for e in hits] == [walk.pages[3], walk.pages[2], walk.pages[1]]
    # A drop at L3 alone: the event list skips it, counted miss m3.
    iommu.ptcaches.l3.flush()
    iommu.iotlb.flush()
    del recorder.events[:]
    assert iommu.translate(base).memory_reads == 2
    hits = [e for e in recorder.events if isinstance(e, PtCacheHitEvent)]
    assert [e.level for e in hits] == [2, 1]
    assert iommu.stats.ptcache_counted_misses == {1: 1, 2: 1, 3: 2}
    assert iommu.ptcaches.counted_misses == {1: 1, 2: 1, 3: 2}


def mapped_table(*spans):
    """A table with ``(iova, pages)`` spans mapped in order."""
    table = IOPageTable()
    frame = 100
    for iova, pages in spans:
        table.map_range(iova, list(range(frame, frame + pages)))
        frame += pages
    return table


def mapped(table, iova, pages):
    return [table.lookup(iova + i * PAGE_SIZE) is not None for i in range(pages)]


class TestUnmapRangePinned:
    def test_range_spanning_two_ptl4_pages(self):
        start = GB + PTL4_PAGE_SIZE - 4 * PAGE_SIZE
        table = mapped_table((start, 8))
        created = table.stats.pages_created
        assert table.unmap_range(start, 8 * PAGE_SIZE) == []
        assert mapped(table, start, 8) == [False] * 8
        assert table.stats.unmaps == 8
        assert table.mapped_pages == 0
        # Both leaf pages survive: neither was covered whole.
        assert table.stats.pages_created == created
        assert table.stats.pages_reclaimed == 0

    def test_hole_mid_range_raises_after_clearing_prefix(self):
        start = GB + PTL4_PAGE_SIZE - 4 * PAGE_SIZE
        # Pages 0..5 and 7, 8 mapped: page 6 (second leaf page) is a hole.
        table = mapped_table((start, 6), (start + 7 * PAGE_SIZE, 2))
        with pytest.raises(MappingError) as error:
            table.unmap_range(start, 9 * PAGE_SIZE)
        assert str(error.value) == f"iova {start + 6 * PAGE_SIZE:#x} not mapped"
        assert mapped(table, start, 9) == [False] * 6 + [False, True, True]
        assert table.stats.unmaps == 6
        assert table.mapped_pages == 2
        assert table.stats.pages_reclaimed == 0

    def test_missing_leaf_page_raises_at_its_first_page(self):
        start = GB + PTL4_PAGE_SIZE - 2 * PAGE_SIZE
        table = mapped_table((start, 2))
        with pytest.raises(MappingError) as error:
            table.unmap_range(start, 4 * PAGE_SIZE)
        assert str(error.value) == f"iova {GB + PTL4_PAGE_SIZE:#x} not mapped"
        assert mapped(table, start, 2) == [False, False]
        assert table.stats.unmaps == 2
        assert table.mapped_pages == 0

    def test_partial_huge_unmap_raises_after_clearing_prefix(self):
        huge = GB + PTL4_PAGE_SIZE
        table = mapped_table((huge - 2 * PAGE_SIZE, 2))
        table.map_huge(huge, 5000)
        with pytest.raises(MappingError) as error:
            table.unmap_range(huge - 2 * PAGE_SIZE, PTL4_PAGE_SIZE)
        assert str(error.value) == f"partial unmap of huge mapping at {huge:#x}"
        assert mapped(table, huge - 2 * PAGE_SIZE, 2) == [False, False]
        assert table.lookup(huge) == 5000
        assert table.stats.unmaps == 2
        assert table.mapped_pages == 512

    def test_unmap_starting_inside_huge_leaf_raises(self):
        huge = GB + PTL4_PAGE_SIZE
        table = IOPageTable()
        table.map_huge(huge, 5000)
        with pytest.raises(MappingError) as error:
            table.unmap_range(huge + PAGE_SIZE, PTL4_PAGE_SIZE)
        assert str(error.value) == f"partial unmap of huge mapping at {huge:#x}"
        assert table.stats.unmaps == 0
        assert table.mapped_pages == 512

    def test_huge_leaf_then_small_pages_in_one_call(self):
        huge = GB + PTL4_PAGE_SIZE
        table = mapped_table((huge + PTL4_PAGE_SIZE, 3))
        table.map_huge(huge, 5000)
        reclaimed = table.unmap_range(huge, PTL4_PAGE_SIZE + 3 * PAGE_SIZE)
        assert reclaimed == []
        assert table.stats.unmaps == 4
        assert table.mapped_pages == 0
        assert table.walk(huge) is None

    def test_whole_page_reclaim_order_and_counters(self):
        # [base - 2 MB, base + 1 GB + 2 MB): the last leaf page of the
        # previous 1 GB region, the whole PT-L3 page at ``base`` (two
        # leaf pages then 510 huge leaves), and the first leaf page of
        # the next region.
        base = 4 * GB
        table = mapped_table(
            (base - PTL4_PAGE_SIZE, 512),
            (base, 512),
            (base + PTL4_PAGE_SIZE, 512),
            (base + GB, 512),
        )
        for region in range(2, 512):
            table.map_huge(base + region * PTL4_PAGE_SIZE, 10_000 + region)
        recorder = Recorder()
        table.monitor = recorder
        reclaimed = table.unmap_range(
            base - PTL4_PAGE_SIZE, GB + 2 * PTL4_PAGE_SIZE
        )
        expected = [
            (4, base - PTL4_PAGE_SIZE),
            (3, base),
            (4, base),
            (4, base + PTL4_PAGE_SIZE),
            (4, base + GB),
        ]
        assert [(r.level, r.base_iova) for r in reclaimed] == expected
        assert [r.coverage_bytes for r in reclaimed] == [
            PTL4_PAGE_SIZE, GB, PTL4_PAGE_SIZE, PTL4_PAGE_SIZE, PTL4_PAGE_SIZE,
        ]
        events = [
            (e.page.level, e.page.base_iova)
            for e in recorder.events
            if isinstance(e, PtPageReclaimedEvent)
        ]
        assert events == expected
        assert table.stats.unmaps == 4 * 512 + 510
        assert table.stats.pages_reclaimed == 5
        assert table.stats.reclaims_by_level == {1: 0, 2: 0, 3: 1, 4: 4}
        assert table.mapped_pages == 0
        # The PT-L2 page and the two PT-L3 pages at the edges survive.
        created = table.stats.pages_created
        table.map_page(base - PAGE_SIZE, 1)
        table.map_page(base + GB, 2)
        assert table.stats.pages_created == created + 2
        table.map_page(base, 3)
        assert table.stats.pages_created == created + 4
