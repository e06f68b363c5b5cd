"""Driver-level monitor tests: DMA bounds and violation-free operation.

The strict-family drivers must run their full Rx/Tx datapaths without
tripping any invariant; a DMA outside every registered buffer must trip
invariant (d) even though the translation itself succeeds.
"""

from unittest import mock

import pytest

from repro.context import using
from repro.iommu import Iommu
from repro.iommu.addr import PAGE_SIZE
from repro.mem.physmem import PhysicalMemory
from repro.protection import deferred
from repro.protection.deferred import DeferredDriver
from repro.protection.strict import StrictFamilyDriver
from repro.verify import InvariantMonitor, InvariantViolation

NUM_CPUS = 2


def build(factory, monitor, **kwargs):
    with using(monitor=monitor):
        iommu = Iommu()
        physmem = PhysicalMemory()
        return factory(iommu, physmem, NUM_CPUS, **kwargs)


def exercise(driver, pages=8):
    """One full Rx + Tx datapath cycle, translating like the NIC would."""
    descriptor, _ = driver.make_rx_descriptor(core=0, pages=pages)
    for slot in descriptor.slots:
        driver.translate_for_dma(slot.iova, "rx")
    driver.retire_rx_descriptor(descriptor, core=0)
    mappings = []
    for _ in range(4):
        mapping, _ = driver.map_tx_page(core=1)
        driver.translate_for_dma(mapping.iova, "tx_data")
        mappings.append(mapping)
    driver.retire_tx_pages(mappings, core=1)


@pytest.mark.parametrize(
    "factory,kwargs",
    [
        (StrictFamilyDriver.linux_strict, {}),
        (StrictFamilyDriver.linux_plus_preserve, {}),
        (StrictFamilyDriver.linux_plus_contiguous, {"chunk_pages": 8}),
        (StrictFamilyDriver.fns, {"chunk_pages": 8}),
    ],
    ids=["linux-strict", "linux+A", "linux+B", "fns"],
)
def test_strict_family_runs_violation_free(factory, kwargs):
    monitor = InvariantMonitor()
    driver = build(factory, monitor, **kwargs)
    for _ in range(6):
        exercise(driver)
    assert monitor.ok
    assert monitor.translations_checked > 0
    assert monitor.stale_window_translations == 0


def test_fns_huge_runs_violation_free():
    monitor = InvariantMonitor()
    driver = build(StrictFamilyDriver.fns_huge, monitor)
    for _ in range(2):
        descriptor, _ = driver.make_rx_descriptor(core=0, pages=512)
        for slot in descriptor.slots[:16]:
            driver.translate_for_dma(slot.iova, "rx")
        driver.retire_rx_descriptor(descriptor, core=0)
    assert monitor.ok
    assert monitor.translations_checked > 0


def test_dma_outside_registered_buffers_violates():
    monitor = InvariantMonitor()
    driver = build(StrictFamilyDriver.linux_strict, monitor)
    descriptor, _ = driver.make_rx_descriptor(core=0, pages=4)
    for slot in descriptor.slots:
        driver.translate_for_dma(slot.iova, "rx")
    # A mapping the driver never registered as a DMA buffer (e.g. a
    # leaked page or an attacker-controlled stray descriptor entry):
    # translation succeeds, but the access is out of bounds.
    stray = 0x1000
    driver.iommu.map_page(stray, frame=99)
    with pytest.raises(InvariantViolation) as excinfo:
        driver.translate_for_dma(stray, "rx")
    assert excinfo.value.kind == "dma-out-of-bounds"


def test_dma_after_retire_is_out_of_bounds_or_dead():
    """After retiring a descriptor, any surviving access to its pages
    must trip an invariant (use-after-unmap if the IOTLB entry survived,
    bounds otherwise)."""
    monitor = InvariantMonitor()
    driver = build(StrictFamilyDriver.linux_strict, monitor)
    descriptor, _ = driver.make_rx_descriptor(core=0, pages=4)
    target = descriptor.slots[0].iova
    frame = descriptor.slots[0].frame
    driver.translate_for_dma(target, "rx")
    driver.retire_rx_descriptor(descriptor, core=0)
    # Forge the stale IOTLB entry a buggy invalidation would leave.
    driver.iommu.iotlb.insert(target, frame)
    with pytest.raises(InvariantViolation) as excinfo:
        driver.translate_for_dma(target, "rx")
    assert excinfo.value.kind == "use-after-unmap"


def test_bounds_check_can_be_disabled():
    monitor = InvariantMonitor(check_dma_bounds=False)
    driver = build(StrictFamilyDriver.linux_strict, monitor)
    descriptor, _ = driver.make_rx_descriptor(core=0, pages=2)
    stray = 0x1000
    driver.iommu.map_page(stray, frame=99)
    driver.translate_for_dma(stray, "rx")
    assert monitor.ok


def test_deferred_mode_stale_window_is_counted_not_fatal():
    """Deferred mode's deliberate hole: a stale IOTLB entry keeps
    translating until the batched flush.  Invariant (a) only fires after
    a *completed* invalidation, so the monitor counts the window."""
    monitor = InvariantMonitor(check_dma_bounds=False)
    with using(monitor=monitor):
        iommu = Iommu()
        physmem = PhysicalMemory()
        with mock.patch.object(deferred, "FLUSH_THRESHOLD", 10_000):
            driver = DeferredDriver(iommu, physmem, NUM_CPUS)
    descriptor, _ = driver.make_rx_descriptor(core=0, pages=4)
    target = descriptor.slots[0].iova
    driver.translate_for_dma(target, "rx")
    driver.retire_rx_descriptor(descriptor, core=0)
    # No flush yet: the stale entry still translates (the safety hole).
    driver.translate_for_dma(target, "rx")
    assert driver.iommu.stale_translations == 1
    assert monitor.ok
    assert monitor.stale_window_translations == 1
    # After the flush completes the invalidation, the same access is a
    # hard violation if anything still translates it.
    driver.flush()
    driver.iommu.iotlb.insert(target, descriptor.slots[0].frame)
    with pytest.raises(InvariantViolation) as excinfo:
        driver.translate_for_dma(target, "rx")
    assert excinfo.value.kind == "use-after-unmap"
