"""Hardened vs. unhardened drivers under invalidation-completion faults.

The acceptance bar (and the point of the hardening): an injected fault
may cost throughput, never safety.  The hardened strict driver retries
and finally degrades to a global flush; a deliberately unhardened
variant that ignores completed lengths leaves stale IOTLB entries
live, and the invariant monitor catches the resulting unsafe access.
"""

import pytest

from repro.context import using
from repro.faults import FaultPlan, FaultRuntime, FaultSpec
from repro.iommu import DmaFault, Iommu, IommuConfig
from repro.iommu.addr import PAGE_SIZE
from repro.mem import PhysicalMemory
from repro.protection import StrictFamilyDriver
from repro.verify import InvariantMonitor


class LeakyStrictDriver(StrictFamilyDriver):
    """Strict driver with the hardening removed: fire-and-forget.

    Submits invalidations but never checks the completed length — the
    exact bug class ``_invalidate_robust`` (and lint rule REPRO004)
    exists to prevent.  Test-only.
    """

    def _invalidate_robust(
        self, iova, length, preserve_ptcache, ptcache_only=False
    ):
        cost, _ = self.iommu.invalidation_queue.invalidate_range(
            iova, length, preserve_ptcache, ptcache_only=ptcache_only
        )
        return cost


DROP_EVERYTHING = FaultPlan(
    seed=1,
    name="drop-all-completions",
    specs=(FaultSpec("invalidation", "drop-completion", probability=1.0),),
)


def build(driver_cls, monitor):
    with using(monitor=monitor, faults=FaultRuntime(DROP_EVERYTHING)):
        iommu = Iommu(IommuConfig())
        physmem = PhysicalMemory(1 << 16)
        driver = driver_cls(
            iommu,
            physmem,
            num_cpus=1,
            preserve_ptcache=True,
            contiguous_iova=True,
        )
    return driver, iommu


def test_unhardened_driver_is_caught_by_the_monitor():
    monitor = InvariantMonitor(raise_on_violation=False)
    driver, iommu = build(LeakyStrictDriver, monitor)
    with using(monitor=monitor):
        descriptor, _ = driver.make_rx_descriptor(core=0, pages=64)
        stale = descriptor.slots[0].iova
        driver.translate_for_dma(stale, "rx")  # device warms the IOTLB
        driver.retire_rx_descriptor(descriptor, core=0)
        # Every completion was dropped and the driver never noticed:
        # the stale translation survives retirement.
        assert iommu.iotlb.contains(stale)
        assert driver.device_can_access(stale)
        # A buggy/malicious device replays the stale translation; it
        # still succeeds, and the access lands outside every live
        # buffer — the monitor must flag it.
        driver.translate_for_dma(stale, "rx")
    assert not monitor.ok
    assert monitor.violations[0].kind == "dma-out-of-bounds"


def test_hardened_driver_same_fault_stays_safe():
    monitor = InvariantMonitor()  # raising: any violation fails loudly
    driver, iommu = build(StrictFamilyDriver, monitor)
    with using(monitor=monitor):
        descriptor, _ = driver.make_rx_descriptor(core=0, pages=64)
        stale = descriptor.slots[0].iova
        driver.translate_for_dma(stale, "rx")
        driver.retire_rx_descriptor(descriptor, core=0)
        # The retry budget was burned, then the driver degraded to a
        # global flush: expensive, but the window is closed.
        assert driver.invalidation_retries >= driver.max_invalidation_retries
        assert driver.degraded_flushes >= 1
        assert not iommu.iotlb.contains(stale)
        assert not driver.device_can_access(stale)
        with pytest.raises(DmaFault):
            driver.translate_for_dma(stale, "rx")
    assert monitor.ok
    assert monitor.faults_observed == 1


def test_degradation_costs_cpu_not_safety():
    """The hardened retire is strictly more expensive under faults —
    the throughput-for-safety trade the sweep quantifies."""
    iommu = Iommu(IommuConfig())
    physmem = PhysicalMemory(1 << 16)
    clean_driver = StrictFamilyDriver.fns(iommu, physmem, num_cpus=1)
    descriptor, _ = clean_driver.make_rx_descriptor(core=0, pages=64)
    clean_cost = clean_driver.retire_rx_descriptor(descriptor, core=0)

    faulty_driver, _ = build(StrictFamilyDriver, InvariantMonitor())
    descriptor, _ = faulty_driver.make_rx_descriptor(core=0, pages=64)
    faulty_cost = faulty_driver.retire_rx_descriptor(descriptor, core=0)
    assert faulty_cost > clean_cost
