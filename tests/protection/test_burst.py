"""Batched same-page DMA translation vs the scalar loop.

``translate_for_dma_burst`` exists purely as a hot-path optimization:
its contract is that its complete counter/cache effect is *identical*
to calling ``translate`` once per transaction, and that it declines
(returns ``None``) whenever any observer could tell the difference
(monitor, stale-hit checks, fault injection, fault queue).
"""

import dataclasses

import pytest

from repro.iommu import DmaFault, Iommu, IommuConfig
from repro.mem import PhysicalMemory
from repro.protection import DeferredDriver, PassthroughDriver, StrictFamilyDriver


def make_pair(factory_name="linux_strict"):
    """Two identically configured driver+iommu stacks."""
    stacks = []
    for _ in range(2):
        iommu = Iommu(IommuConfig())
        physmem = PhysicalMemory(1 << 16)
        factory = getattr(StrictFamilyDriver, factory_name)
        stacks.append((factory(iommu, physmem, num_cpus=2), iommu))
    return stacks


def stats_tuple(iommu):
    return (
        dataclasses.asdict(iommu.stats),
        iommu.iotlb.hits,
        iommu.iotlb.misses,
    )


class TestBurstEquivalence:
    @pytest.mark.parametrize("count", [1, 2, 7])
    def test_burst_counters_equal_scalar_loop(self, count):
        (burst_driver, burst_iommu), (scalar_driver, scalar_iommu) = (
            make_pair()
        )
        for driver in (burst_driver, scalar_driver):
            descriptor, _ = driver.make_rx_descriptor(core=0, pages=2)
            driver._descriptor = descriptor  # stash for the loop below
        burst_iova = burst_driver._descriptor.slots[0].iova
        scalar_iova = scalar_driver._descriptor.slots[0].iova
        reads = burst_driver.translate_for_dma_burst(
            burst_iova, count, "rx"
        )
        scalar_reads = [
            scalar_driver.translate(scalar_iova, "rx")
            for _ in range(count)
        ]
        # The burst reports the first transaction's walk reads (the
        # only one that can miss); replays are hits by construction.
        assert reads == scalar_reads[0]
        assert stats_tuple(burst_iommu) == stats_tuple(scalar_iommu)

    def test_burst_faults_like_scalar_on_unmapped_iova(self):
        (driver, iommu), _ = make_pair()
        descriptor, _ = driver.make_rx_descriptor(core=0, pages=1)
        iova = descriptor.slots[0].iova
        for _ in range(descriptor.size):
            descriptor.take_run(1)
            descriptor.dma_done()
        driver.retire_rx_descriptor(descriptor, core=0)
        with pytest.raises(DmaFault):
            driver.translate_for_dma_burst(iova, 4, "rx")

    def test_passthrough_burst_is_free(self):
        physmem = PhysicalMemory(1 << 10)
        driver = PassthroughDriver(physmem)
        assert driver.translate_for_dma_burst(0, 16, "rx") == 0


class TestBurstGating:
    def test_stale_hit_checks_disable_base_burst(self):
        (driver, iommu), _ = make_pair()
        descriptor, _ = driver.make_rx_descriptor(core=0, pages=1)
        iommu.enable_stale_hit_checks()
        assert (
            driver.translate_for_dma_burst(
                descriptor.slots[0].iova, 4, "rx"
            )
            is None
        )

    def test_deferred_burst_counts_stale_per_replay(self):
        iommu = Iommu(IommuConfig())
        physmem = PhysicalMemory(1 << 16)
        driver = DeferredDriver(
            iommu, physmem, num_cpus=2, flush_threshold=10_000
        )
        descriptor, _ = driver.make_rx_descriptor(core=0, pages=1)
        iova = descriptor.slots[0].iova
        driver.translate(iova, "rx")
        for _ in range(descriptor.size):
            descriptor.take_run(1)
            descriptor.dma_done()
        driver.retire_rx_descriptor(descriptor, core=0)
        # Unmapped but not yet flushed: every burst transaction is a
        # stale translation, exactly as the scalar loop would count.
        before = driver.stale_translations
        reads = driver.translate_for_dma_burst(iova, 5, "rx")
        assert reads is not None
        assert driver.stale_translations == before + 5
