"""Burst translation of a page's TLPs equals one translate per TLP.

``Iommu.translate_page`` (behind every driver's ``translate_for_dma``)
translates a page's first TLP and counts TLPs 2..N as IOTLB hits,
unless the run context has an observer that sees every call
(``per_call``: a monitor or a fault runtime), when it translates each
TLP at its own address.  Each test runs a burst stack next to a
per-call twin -- the same driver and IOMMU built under an empty fault
runtime -- and asserts that nothing the datapath reads can tell them
apart: the returned reads, the full ``IommuStats``, the IOTLB's
counters and the stale tally.
"""

import dataclasses
from unittest import mock

import pytest

from repro.context import using
from repro.faults import FaultPlan, FaultRuntime
from repro.iommu import DmaFault, Iommu, IommuConfig
from repro.mem import PhysicalMemory
from repro.protection import (
    DeferredDriver,
    PassthroughDriver,
    StrictFamilyDriver,
    deferred,
)

MPS = 256  # max payload: 16 TLPs per 4 KB page

FACTORIES = {
    "linux-strict": StrictFamilyDriver.linux_strict,
    "fns": StrictFamilyDriver.fns,
    "linux+A": StrictFamilyDriver.linux_plus_preserve,
    "deferred": DeferredDriver,
    "passthrough": lambda iommu, physmem, num_cpus: PassthroughDriver(
        physmem
    ),
}


def make_twins(mode, check_stale_hits=False, **config):
    """A burst stack and its per-call twin, identically configured."""
    stacks = []
    empty = FaultRuntime(FaultPlan(seed=1, name="empty", specs=()))
    for fields in ({}, {"faults": empty}):
        # A high flush threshold keeps deferred unmaps pending.
        with using(**fields), mock.patch.object(
            deferred, "FLUSH_THRESHOLD", 10_000
        ):
            iommu = Iommu(IommuConfig(**config))
            iommu.check_stale_hits = check_stale_hits
            driver = FACTORIES[mode](
                iommu, PhysicalMemory(1 << 16), num_cpus=2
            )
        stacks.append((driver, iommu))
    assert [iommu.per_call for _, iommu in stacks] == [False, True]
    return stacks


def observed(iommu):
    iotlb = iommu.iotlb
    return (
        dataclasses.asdict(iommu.stats),
        (iotlb.hits, iotlb.misses, iotlb.evictions, iotlb.invalidations),
        iommu.stale_translations,
    )


def retire(driver, descriptor):
    for _ in range(descriptor.size):
        descriptor.take_run(1)
        descriptor.dma_done()
    driver.retire_rx_descriptor(descriptor, core=0)


def exercise(driver, count):
    """Rx pages cold then warm, a Tx page, and -- deferred only -- the
    retired Rx pages again, which its stale IOTLB entries still serve."""
    descriptor, _ = driver.make_rx_descriptor(core=0, pages=4)
    mapping, _ = driver.map_tx_page(core=1)
    reads = []
    for _ in range(2):
        for slot in descriptor.slots:
            reads.append(driver.translate_for_dma(slot.iova, "rx", count, MPS))
    reads.append(driver.translate_for_dma(mapping.iova, "tx_data", count, MPS))
    retire(driver, descriptor)
    if isinstance(driver, DeferredDriver):
        for slot in descriptor.slots:
            reads.append(driver.translate_for_dma(slot.iova, "rx", count, MPS))
    return reads


class TestBurstEquivalence:
    @pytest.mark.parametrize("count", [1, 2, 7])
    def test_burst_counters_equal_scalar_loop(self, count):
        for mode in FACTORIES:
            (burst, burst_iommu), (twin, twin_iommu) = make_twins(mode)
            assert exercise(burst, count) == exercise(twin, count), mode
            assert observed(burst_iommu) == observed(twin_iommu), mode

    def test_burst_faults_like_scalar_on_unmapped_iova(self):
        for driver, iommu in make_twins("linux-strict"):
            descriptor, _ = driver.make_rx_descriptor(core=0, pages=1)
            iova = descriptor.slots[0].iova
            retire(driver, descriptor)
            with pytest.raises(DmaFault):
                driver.translate_for_dma(iova, "rx", 4, MPS)
            assert iommu.stats.faults == 1
            assert iommu.stats.translations == 1

    def test_passthrough_burst_is_free(self):
        physmem = PhysicalMemory(1 << 10)
        driver = PassthroughDriver(physmem)
        assert driver.translate_for_dma(0, "rx", 16, MPS) == 0


class TestBurstGating:
    def test_stale_hit_checks_keep_the_burst(self, monkeypatch):
        (burst, burst_iommu), (twin, twin_iommu) = make_twins(
            "linux-strict", check_stale_hits=True
        )
        calls = {burst_iommu: 0, twin_iommu: 0}
        translate = Iommu.translate

        def counted(iommu, iova, source="rx"):
            calls[iommu] += 1
            return translate(iommu, iova, source)

        monkeypatch.setattr(Iommu, "translate", counted)
        assert exercise(burst, 16) == exercise(twin, 16)
        assert observed(burst_iommu) == observed(twin_iommu)
        # Only the first TLP of each page ran translate().
        pages = 4 * 2 + 1
        assert calls == {burst_iommu: pages, twin_iommu: 16 * pages}

    def test_deferred_burst_counts_stale_per_replay(self):
        (burst, burst_iommu), (twin, twin_iommu) = make_twins("deferred")
        assert exercise(burst, 5) == exercise(twin, 5)
        # Unmapped but not yet flushed: every TLP of the 4 retired
        # pages is a stale translation, in the burst as in its twin.
        assert burst_iommu.stale_translations == 4 * 5
        assert observed(burst_iommu) == observed(twin_iommu)

    def test_abort_on_first_tlp_with_fault_queue(self):
        outcomes = []
        for driver, iommu in make_twins("linux-strict", fault_queue=True):
            descriptor, _ = driver.make_rx_descriptor(core=0, pages=2)
            live = descriptor.slots[1].iova
            dead = descriptor.slots[0].iova
            driver.iommu.unmap_range(dead, 4096)
            reads = [
                driver.translate_for_dma(live, "rx", 16, MPS),
                driver.translate_for_dma(dead, "rx", 16, MPS),
            ]
            assert reads[1] is None  # aborted: no data moved
            records = [
                (record.iova, record.source, record.reason)
                for record in iommu.fault_queue.records
            ]
            outcomes.append((reads, observed(iommu), records))
        burst, twin = outcomes
        assert burst == twin
        # The first TLP aborted; no later TLP was translated or logged.
        assert burst[2] == [(dead, "rx", "unmapped")]
