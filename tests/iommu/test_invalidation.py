"""Unit tests for the invalidation-queue interface.

Every IOMMU here is built under an invariant monitor, whose event trace
records each descriptor the queue completed.
"""

from repro.context import using
from repro.iommu import Iommu, IommuConfig
from repro.iommu.addr import PAGE_SIZE
from repro.iommu.invalidation import CPU_COST_NS
from repro.verify import (
    InvalidationEvent,
    InvariantMonitor,
    PtCacheInvalidationEvent,
)


def make_iommu():
    with using(monitor=InvariantMonitor()):
        return Iommu(IommuConfig())


def descriptors(iommu):
    """The completed descriptors, oldest first: (kind, iova, length,
    preserve_ptcache); PTcache-only ones have no preserve flag."""
    out = []
    for event in iommu.monitor.trace():
        if isinstance(event, InvalidationEvent):
            out.append(
                ("iotlb", event.iova, event.length, event.preserve_ptcache)
            )
        elif isinstance(event, PtCacheInvalidationEvent):
            out.append(("ptcache", event.iova, event.length, None))
    return out


def warm(iommu, base, pages):
    for page in range(pages):
        iommu.map_page(base + page * PAGE_SIZE, page)
        iommu.translate(base + page * PAGE_SIZE)


def test_preserve_flag_controls_ptcache():
    iommu = make_iommu()
    warm(iommu, 0x100000, 2)
    iommu.invalidation_queue.invalidate_range(
        0x100000, PAGE_SIZE, preserve_ptcache=True
    )
    assert iommu.ptcaches.l3.resident_entries > 0
    iommu.invalidation_queue.invalidate_range(
        0x101000, PAGE_SIZE, preserve_ptcache=False
    )
    assert iommu.ptcaches.l3.resident_entries == 0


def test_requests_traced():
    iommu = make_iommu()
    warm(iommu, 0x100000, 1)
    iommu.invalidation_queue.invalidate_range(
        0x100000, PAGE_SIZE, preserve_ptcache=True
    )
    assert descriptors(iommu)[-1] == ("iotlb", 0x100000, PAGE_SIZE, True)


def test_cpu_cost_constant_per_request_not_per_page():
    """The CPU pays per queue entry: a ranged 64-page invalidation
    costs the same as a single-page one — F&S's B2 saving."""
    iommu = make_iommu()
    warm(iommu, 0x200000, 64)
    single = iommu.invalidation_queue.invalidate_range(
        0x200000, PAGE_SIZE, preserve_ptcache=True
    )
    ranged = iommu.invalidation_queue.invalidate_range(
        0x201000, 63 * PAGE_SIZE, preserve_ptcache=True
    )
    assert single == (CPU_COST_NS, PAGE_SIZE)
    assert ranged == (CPU_COST_NS, 63 * PAGE_SIZE)


def test_ptcache_only_invalidation():
    """The F&S correctness fallback drops PTcache entries without
    touching the IOTLB."""
    iommu = make_iommu()
    warm(iommu, 0x300000, 1)
    iommu.invalidation_queue.invalidate_range(
        0x300000, PAGE_SIZE, preserve_ptcache=False, ptcache_only=True
    )
    assert iommu.ptcaches.l3.resident_entries == 0
    assert iommu.iotlb.contains(0x300000)
    assert descriptors(iommu) == [("ptcache", 0x300000, PAGE_SIZE, None)]


def test_stats_counters():
    iommu = make_iommu()
    warm(iommu, 0x400000, 1)
    iommu.invalidation_queue.invalidate_range(
        0x400000, PAGE_SIZE, preserve_ptcache=True
    )
    assert iommu.stats.invalidation_requests == 1
    assert iommu.stats.ptcache_invalidation_requests == 0
    iommu.invalidation_queue.flush_all()
    assert iommu.stats.invalidation_requests == 2
    assert iommu.stats.ptcache_invalidation_requests == 1


def test_total_cpu_accumulates():
    iommu = make_iommu()
    warm(iommu, 0x500000, 2)
    queue = iommu.invalidation_queue
    queue.invalidate_range(0x500000, PAGE_SIZE, preserve_ptcache=True)
    queue.invalidate_range(
        0x500000, PAGE_SIZE, preserve_ptcache=False, ptcache_only=True
    )
    queue.flush_all()
    assert queue.total_cpu_ns == 3 * CPU_COST_NS


# ---------------------------------------------------------------------------
# Range edge cases
# ---------------------------------------------------------------------------
def test_zero_length_request_is_a_noop():
    """VT-d descriptors cover at least one page; a zero-length submit
    must not wait, count, or touch any cache."""
    iommu = make_iommu()
    warm(iommu, 0x600000, 1)
    queue = iommu.invalidation_queue
    # Confirmed: the completed length equals the (zero) length asked.
    assert queue.invalidate_range(
        0x600000, 0, preserve_ptcache=True
    ) == (0.0, 0)
    assert iommu.iotlb.contains(0x600000)
    assert iommu.stats.invalidation_requests == 0
    assert queue.total_cpu_ns == 0.0
    assert descriptors(iommu) == []


def test_range_spanning_past_last_mapped_page():
    """An invalidation range may extend beyond the last mapped page
    (e.g. a driver rounding up to a power of two): mapped pages inside
    the range are dropped, the unmapped tail is harmless."""
    iommu = make_iommu()
    warm(iommu, 0x700000, 4)
    _, completed = iommu.invalidation_queue.invalidate_range(
        0x702000, 4 * PAGE_SIZE, preserve_ptcache=True
    )
    assert completed == 4 * PAGE_SIZE
    # Pages 0-1 are outside the range and survive; 2-3 are inside and
    # must be gone even though the range runs two pages past them.
    assert iommu.iotlb.contains(0x700000)
    assert iommu.iotlb.contains(0x701000)
    assert not iommu.iotlb.contains(0x702000)
    assert not iommu.iotlb.contains(0x703000)


def test_preserve_ptcache_on_unmapped_range():
    """Invalidating a never-mapped range is legal (drivers batch over
    holes): full CPU cost, nothing cached changes."""
    iommu = make_iommu()
    warm(iommu, 0x800000, 1)
    queue = iommu.invalidation_queue
    resident_before = iommu.ptcaches.l3.resident_entries
    assert queue.invalidate_range(
        0xdead000, 2 * PAGE_SIZE, preserve_ptcache=True
    ) == (CPU_COST_NS, 2 * PAGE_SIZE)
    assert iommu.iotlb.contains(0x800000)
    assert iommu.ptcaches.l3.resident_entries == resident_before
    assert iommu.stats.invalidation_requests == 1
