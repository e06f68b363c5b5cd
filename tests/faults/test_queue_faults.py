"""Invalidation-queue behaviour under injected completion faults."""

from repro.context import using
from repro.faults import FaultPlan, FaultRuntime, FaultSpec
from repro.iommu import Iommu, IommuConfig
from repro.iommu.addr import PAGE_SIZE
from repro.iommu.invalidation import CPU_COST_NS


def plan_for(kind, probability=1.0, magnitude=0.0, seed=1):
    return FaultPlan(
        seed=seed,
        specs=(
            FaultSpec(
                "invalidation",
                kind,
                probability=probability,
                magnitude=magnitude,
            ),
        ),
    )


def faulted_iommu(plan):
    with using(faults=FaultRuntime(plan)):
        # The queue captures its injector at construction time.
        iommu = Iommu(IommuConfig())
    return iommu


def warm(iommu, base, pages):
    for page in range(pages):
        iommu.map_page(base + page * PAGE_SIZE, page)
        iommu.translate(base + page * PAGE_SIZE)


def test_dropped_completion_leaves_caches_untouched():
    iommu = faulted_iommu(plan_for("drop-completion"))
    warm(iommu, 0x100000, 2)
    queue = iommu.invalidation_queue
    cost, completed = queue.invalidate_range(
        0x100000, 2 * PAGE_SIZE, preserve_ptcache=True
    )
    assert completed == 0
    # Nothing was invalidated: the stale entries survive, which is why
    # callers must check the completed length.
    assert iommu.iotlb.contains(0x100000)
    assert iommu.iotlb.contains(0x101000)
    assert queue.dropped_completions == 1
    assert queue.partial_completions == 0
    # The wait timed out: strictly more expensive than a clean wait.
    assert cost > CPU_COST_NS


def test_partial_completion_invalidates_prefix_only():
    iommu = faulted_iommu(plan_for("partial-completion"))
    warm(iommu, 0x200000, 4)
    queue = iommu.invalidation_queue
    _, completed = queue.invalidate_range(
        0x200000, 4 * PAGE_SIZE, preserve_ptcache=True
    )
    assert 0 < completed < 4 * PAGE_SIZE
    assert completed % PAGE_SIZE == 0
    completed_pages = completed // PAGE_SIZE
    for page in range(4):
        iova = 0x200000 + page * PAGE_SIZE
        assert iommu.iotlb.contains(iova) == (page >= completed_pages)
    assert queue.partial_completions == 1
    assert queue.dropped_completions == 0


def test_delayed_completion_completes_with_extra_cost():
    iommu = faulted_iommu(plan_for("delay-completion", magnitude=3_000.0))
    warm(iommu, 0x300000, 1)
    queue = iommu.invalidation_queue
    cost, completed = queue.invalidate_range(
        0x300000, PAGE_SIZE, preserve_ptcache=True
    )
    assert completed == PAGE_SIZE
    assert cost == CPU_COST_NS + 3_000.0
    assert not iommu.iotlb.contains(0x300000)
    assert queue.delayed_completions == 1
    assert queue.dropped_completions == queue.partial_completions == 0


def test_probability_zero_never_fires():
    iommu = faulted_iommu(plan_for("drop-completion", probability=0.0))
    warm(iommu, 0x400000, 1)
    queue = iommu.invalidation_queue
    _, completed = queue.invalidate_range(
        0x400000, PAGE_SIZE, preserve_ptcache=True
    )
    assert completed == PAGE_SIZE
    assert queue.dropped_completions == 0


def test_flush_survives_drop_faults():
    """The register-based flush cannot be lost — that is what makes it
    a sound graceful-degradation fallback."""
    iommu = faulted_iommu(plan_for("drop-completion"))
    warm(iommu, 0x500000, 2)
    queue = iommu.invalidation_queue
    assert queue.flush_all() == CPU_COST_NS
    assert queue.dropped_completions == 0
    assert not iommu.iotlb.contains(0x500000)
    assert not iommu.iotlb.contains(0x501000)
