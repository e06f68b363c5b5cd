"""Invalidation-queue behaviour under injected completion faults."""

from repro.context import using
from repro.faults import FaultPlan, FaultRuntime, FaultSpec
from repro.iommu import Iommu, IommuConfig
from repro.iommu.addr import PAGE_SIZE
from repro.iommu.invalidation import InvalidationStatus


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
        iommu = Iommu(IommuConfig(invalidation_cpu_ns=250.0))
    return iommu


def warm(iommu, base, pages):
    for page in range(pages):
        iommu.map_page(base + page * PAGE_SIZE, page)
        iommu.translate(base + page * PAGE_SIZE)


def test_dropped_completion_leaves_caches_untouched():
    iommu = faulted_iommu(plan_for("drop-completion"))
    warm(iommu, 0x100000, 2)
    result = iommu.invalidation_queue.submit_invalidation(
        0x100000, 2 * PAGE_SIZE, preserve_ptcache=True
    )
    assert result.status is InvalidationStatus.DROPPED
    assert result.completed_length == 0
    assert not result.completed
    # Nothing was invalidated: the stale entries survive, which is why
    # callers must check the status.
    assert iommu.iotlb.contains(0x100000)
    assert iommu.iotlb.contains(0x101000)
    assert iommu.invalidation_queue.dropped_completions == 1
    # The wait timed out: strictly more expensive than a clean wait.
    assert result.cost_ns > iommu.invalidation_queue.cpu_cost_ns


def test_partial_completion_invalidates_prefix_only():
    iommu = faulted_iommu(plan_for("partial-completion"))
    warm(iommu, 0x200000, 4)
    result = iommu.invalidation_queue.submit_invalidation(
        0x200000, 4 * PAGE_SIZE, preserve_ptcache=True
    )
    assert result.status is InvalidationStatus.PARTIAL
    assert 0 < result.completed_length < 4 * PAGE_SIZE
    assert result.completed_length % PAGE_SIZE == 0
    completed_pages = result.completed_length // PAGE_SIZE
    for page in range(4):
        iova = 0x200000 + page * PAGE_SIZE
        assert iommu.iotlb.contains(iova) == (page >= completed_pages)
    assert iommu.invalidation_queue.partial_completions == 1


def test_delayed_completion_completes_with_extra_cost():
    iommu = faulted_iommu(plan_for("delay-completion", magnitude=3_000.0))
    warm(iommu, 0x300000, 1)
    result = iommu.invalidation_queue.submit_invalidation(
        0x300000, PAGE_SIZE, preserve_ptcache=True
    )
    assert result.status is InvalidationStatus.COMPLETED
    assert result.completed_length == PAGE_SIZE
    assert result.cost_ns == iommu.invalidation_queue.cpu_cost_ns + 3_000.0
    assert not iommu.iotlb.contains(0x300000)
    assert iommu.invalidation_queue.delayed_completions == 1


def test_probability_zero_never_fires():
    iommu = faulted_iommu(plan_for("drop-completion", probability=0.0))
    warm(iommu, 0x400000, 1)
    result = iommu.invalidation_queue.submit_invalidation(
        0x400000, PAGE_SIZE, preserve_ptcache=True
    )
    assert result.completed
    assert iommu.invalidation_queue.dropped_completions == 0


def test_flush_survives_drop_faults():
    """The register-based flush cannot be lost — that is what makes it
    a sound graceful-degradation fallback."""
    iommu = faulted_iommu(plan_for("drop-completion"))
    warm(iommu, 0x500000, 2)
    result = iommu.invalidation_queue.submit_flush()
    assert result.status is InvalidationStatus.COMPLETED
    assert not iommu.iotlb.contains(0x500000)
    assert not iommu.iotlb.contains(0x501000)
