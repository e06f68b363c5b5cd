"""Unit tests for the deferred (lazy) protection mode."""

import dataclasses
from unittest import mock

import pytest

from repro.host.config import HostConfig
from repro.host.testbed import Testbed
from repro.iommu import Iommu, IommuConfig
from repro.mem import PhysicalMemory
from repro.protection import DeferredDriver, deferred


def make_driver(flush_threshold=8):
    iommu = Iommu(IommuConfig())
    physmem = PhysicalMemory(1 << 16)
    with mock.patch.object(deferred, "FLUSH_THRESHOLD", flush_threshold):
        driver = DeferredDriver(iommu, physmem, num_cpus=2)
    return driver, iommu, physmem


def consume(descriptor):
    for _ in range(descriptor.size):
        descriptor.take_run(1)
        descriptor.dma_done()


class TestDeferral:
    def test_unmaps_accumulate_until_threshold(self):
        driver, iommu, _ = make_driver(flush_threshold=8)
        descriptor, _ = driver.make_rx_descriptor(core=0, pages=4)
        consume(descriptor)
        driver.retire_rx_descriptor(descriptor, core=0)
        assert driver.pending_invalidations == 4
        assert driver.flushes == 0

    def test_threshold_triggers_global_flush(self):
        driver, iommu, _ = make_driver(flush_threshold=8)
        for _ in range(2):
            descriptor, _ = driver.make_rx_descriptor(core=0, pages=4)
            for slot in descriptor.slots:
                driver.translate_for_dma(slot.iova, "rx")
            consume(descriptor)
            driver.retire_rx_descriptor(descriptor, core=0)
        assert driver.flushes == 1
        assert driver.pending_invalidations == 0
        assert iommu.iotlb.resident_entries == 0

    def test_iovas_not_reused_before_flush(self):
        """Reuse before the flush would hand a live stale translation
        to a different buffer; the driver must hold IOVAs back."""
        driver, _, _ = make_driver(flush_threshold=10_000)
        descriptor, _ = driver.make_rx_descriptor(core=0, pages=4)
        first_iovas = {slot.iova for slot in descriptor.slots}
        consume(descriptor)
        driver.retire_rx_descriptor(descriptor, core=0)
        replacement, _ = driver.make_rx_descriptor(core=0, pages=4)
        second_iovas = {slot.iova for slot in replacement.slots}
        assert not (first_iovas & second_iovas)

    def test_iovas_reusable_after_flush(self):
        driver, _, _ = make_driver(flush_threshold=10_000)
        descriptor, _ = driver.make_rx_descriptor(core=0, pages=4)
        first_iovas = {slot.iova for slot in descriptor.slots}
        consume(descriptor)
        driver.retire_rx_descriptor(descriptor, core=0)
        driver.flush()
        replacement, _ = driver.make_rx_descriptor(core=0, pages=4)
        second_iovas = {slot.iova for slot in replacement.slots}
        assert first_iovas & second_iovas

    def test_stale_translation_counted(self):
        driver, _, _ = make_driver(flush_threshold=10_000)
        descriptor, _ = driver.make_rx_descriptor(core=0, pages=1)
        iova = descriptor.slots[0].iova
        driver.translate_for_dma(iova, "rx")
        consume(descriptor)
        driver.retire_rx_descriptor(descriptor, core=0)
        driver.translate_for_dma(iova, "rx")  # no fault: the safety hole
        assert driver.iommu.stale_translations == 1

    def test_tx_pages_also_deferred(self):
        driver, _, _ = make_driver(flush_threshold=10_000)
        mapping, _ = driver.map_tx_page(core=0)
        driver.retire_tx_pages([mapping], core=0)
        assert driver.pending_invalidations == 1

    def test_not_strict(self):
        driver, _, _ = make_driver()
        assert not driver.strict_safety
        assert driver.name == "linux-deferred"

    def test_stale_checks_stay_on_the_drivers_iommu(self):
        # The check is the deferred driver's own IOMMU's: building a
        # deferred host leaves the caller's config -- and a strict
        # config derived from it -- without stale-hit checks.
        base = HostConfig.cascade_lake(mode="deferred")
        strict = dataclasses.replace(base, mode="strict")
        deferred = Testbed(base).host
        assert base.iommu == IommuConfig()
        assert deferred.iommu.check_stale_hits
        assert not Testbed(strict).host.iommu.check_stale_hits
