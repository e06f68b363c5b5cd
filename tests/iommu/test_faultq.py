"""The IOMMU fault-reporting queue and the hard-abort translation path.

The fault queue is strictly opt-in (`IommuConfig(fault_queue=True)`):
with it attached, a DMA to an unmapped IOVA is aborted and logged like
real hardware does; without it, the same access raises `DmaFault` —
the safety tests' violation detector — exactly as before.
"""

import pytest

from repro.context import using
from repro.faults import FaultPlan, FaultRuntime, FaultSpec
from repro.iommu import DmaFault, Iommu, IommuConfig
from repro.iommu.addr import PAGE_SIZE
from repro.iommu.faultq import ABORT_LATENCY_NS, CAPACITY, FaultReportingQueue
from repro.iommu.invalidation import CPU_COST_NS


# ---------------------------------------------------------------------------
# The queue itself
# ---------------------------------------------------------------------------
def test_report_returns_abort_latency_and_logs_record():
    queue = FaultReportingQueue()
    assert queue.report(0x4000, "rx", "unmapped") == ABORT_LATENCY_NS
    assert queue.reported == 1
    assert queue.depth == 1
    record = queue.records[0]
    assert record.iova == 0x4000
    assert record.source == "rx"
    assert record.reason == "unmapped"


def test_overflow_drops_but_counts():
    queue = FaultReportingQueue()
    for offset in range(CAPACITY + 3):
        queue.report(0x1000 * offset, "rx", "unmapped")
    assert queue.reported == CAPACITY + 3
    assert queue.depth == CAPACITY  # bounded: a storm cannot grow memory
    assert queue.overflowed == 3


def test_drain_consumes_oldest_first():
    queue = FaultReportingQueue()
    queue.report(0x1000, "rx", "unmapped")
    queue.report(0x2000, "tx", "storm")
    records = queue.drain()
    assert [record.iova for record in records] == [0x1000, 0x2000]
    assert queue.depth == 0
    assert queue.drained == 2
    assert queue.drain() == []


def test_clock_binding_stamps_records():
    queue = FaultReportingQueue()
    queue.report(0x1000, "rx", "unmapped")  # unbound: stamped 0.0
    queue.bind_clock(lambda: 42_500.0)
    queue.report(0x2000, "rx", "unmapped")
    assert queue.records[0].time_ns == 0.0
    assert queue.records[1].time_ns == 42_500.0
    assert "iova=0x2000" in queue.records[1].format()


# ---------------------------------------------------------------------------
# The Iommu abort path
# ---------------------------------------------------------------------------
def test_unmapped_dma_aborts_with_fault_queue():
    iommu = Iommu(IommuConfig(fault_queue=True))
    result = iommu.translate(0x9000, source="rx")
    assert result.aborted
    # A page's DMA reports the abort in its return value.
    assert iommu.translate_page(0x9000, "rx", 4, 1024) is None
    assert iommu.stats.faults == 2
    assert iommu.fault_queue.reported == 2
    assert iommu.fault_queue.records[0].reason == "unmapped"


def test_unmapped_dma_raises_without_fault_queue():
    iommu = Iommu()
    assert iommu.fault_queue is None
    with pytest.raises(DmaFault):
        iommu.translate(0x9000, source="rx")


def test_mapped_dma_does_not_abort():
    iommu = Iommu(IommuConfig(fault_queue=True))
    iommu.map_page(0x5000, 7)
    result = iommu.translate(0x5000)
    assert not result.aborted
    assert result.frame == 7
    assert iommu.translate_page(0x5000, "rx", 4, 1024) == 0
    assert iommu.fault_queue.reported == 0


def test_fault_storm_aborts_valid_translation():
    plan = FaultPlan(
        seed=11,
        specs=(FaultSpec("iommu", "fault-storm", probability=1.0),),
    )
    with using(faults=FaultRuntime(plan)):
        iommu = Iommu(IommuConfig(fault_queue=True))
    iommu.map_page(0x5000, 7)
    result = iommu.translate(0x5000)
    # The mapping is perfectly valid; the reporting path kills the
    # transaction anyway and logs a storm record.
    assert result.aborted
    assert iommu.translate_page(0x5000, "rx") is None
    assert iommu.fault_queue.records[0].reason == "storm"


def test_fault_storm_needs_fault_queue_to_fire():
    # Without the hard-abort path the storm injector is ignored: the
    # default configuration must keep raise-on-violation semantics.
    plan = FaultPlan(
        seed=11,
        specs=(FaultSpec("iommu", "fault-storm", probability=1.0),),
    )
    with using(faults=FaultRuntime(plan)):
        iommu = Iommu()
    iommu.map_page(0x5000, 7)
    result = iommu.translate(0x5000)
    assert not result.aborted
    assert result.frame == 7


# ---------------------------------------------------------------------------
# Invalidation-queue re-arm (the wedge-clearing operation)
# ---------------------------------------------------------------------------
def test_rearm_counts_and_charges_one_quantum():
    iommu = Iommu(IommuConfig())
    queue = iommu.invalidation_queue
    before = queue.total_cpu_ns
    assert queue.rearm() == CPU_COST_NS
    assert queue.rearms == 1
    assert queue.total_cpu_ns == before + CPU_COST_NS


def test_rearm_clears_a_latched_wedge():
    plan = FaultPlan(
        seed=5,
        specs=(FaultSpec("invalidation", "wedge-invq"),),
    )
    runtime = FaultRuntime(plan)
    with using(faults=runtime):
        iommu = Iommu(IommuConfig())
    queue = iommu.invalidation_queue
    iommu.map_page(0x8000, 3)
    iommu.translate(0x8000)
    _, completed = queue.invalidate_range(0x8000, PAGE_SIZE, True)
    assert completed == 0
    assert queue.dropped_completions == 1
    assert iommu.iotlb.contains(0x8000)
    assert runtime.unrecovered_wedges() == 1
    queue.rearm()
    assert runtime.unrecovered_wedges() == 0
    _, completed = queue.invalidate_range(0x8000, PAGE_SIZE, True)
    assert completed == PAGE_SIZE
    assert queue.dropped_completions == 1
    assert not iommu.iotlb.contains(0x8000)
