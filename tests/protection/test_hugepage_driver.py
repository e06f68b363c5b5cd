"""Unit tests for the F&S-hugepage driver (§5 extension)."""

import pytest

from repro.iommu import DmaFault, Iommu, IommuConfig
from repro.iommu.addr import PAGE_SIZE
from repro.mem import PhysicalMemory
from repro.protection import StrictFamilyDriver
from repro.protection.strict import MAP_NS


def make_driver():
    iommu = Iommu(IommuConfig())
    physmem = PhysicalMemory(1 << 18)
    driver = StrictFamilyDriver.fns_huge(iommu, physmem, num_cpus=2)
    return driver, iommu, physmem


class TestHugeDescriptors:
    def test_descriptor_is_one_huge_mapping(self):
        driver, iommu, _ = make_driver()
        descriptor, _ = driver.make_rx_descriptor(core=0, pages=512)
        assert descriptor.size == 512
        base = descriptor.slots[0].iova
        assert base % (2 * 1024 * 1024) == 0  # 2 MB aligned IOVA
        walk = iommu.page_table.walk(base)
        assert walk.huge
        # Slots expose per-page frames of the contiguous huge backing.
        assert descriptor.slots[17].frame == descriptor.slots[0].frame + 17

    def test_wrong_size_rejected(self):
        driver, _, _ = make_driver()
        with pytest.raises(ValueError):
            driver.make_rx_descriptor(core=0, pages=64)

    def test_single_map_cost(self):
        driver, _, _ = make_driver()
        _, cost = driver.make_rx_descriptor(core=0, pages=512)
        # One map call, not 512: far below the per-page driver.
        assert cost < 512 * MAP_NS / 4

    def test_strict_safety_after_retire(self):
        driver, iommu, physmem = make_driver()
        descriptor, _ = driver.make_rx_descriptor(core=0, pages=512)
        for slot in descriptor.slots[:8]:
            driver.translate_for_dma(slot.iova, "rx")
        for _ in range(512):
            descriptor.take_run(1)
            descriptor.dma_done()
        driver.retire_rx_descriptor(descriptor, core=0)
        for slot in descriptor.slots[:8]:
            assert not driver.device_can_access(slot.iova)
            with pytest.raises(DmaFault):
                iommu.translate(slot.iova)
        assert physmem.huge_in_use == 0

    def test_single_invalidation_request_per_2mb(self):
        driver, iommu, _ = make_driver()
        descriptor, _ = driver.make_rx_descriptor(core=0, pages=512)
        for _ in range(512):
            descriptor.take_run(1)
            descriptor.dma_done()
        before = iommu.stats.invalidation_requests
        driver.retire_rx_descriptor(descriptor, core=0)
        assert iommu.stats.invalidation_requests - before == 1

    def test_translation_cost_floor_broken(self):
        """One walk covers 512 pages: the per-page compulsory IOTLB
        miss floor of 4 KB mappings does not apply."""
        driver, iommu, _ = make_driver()
        descriptor, _ = driver.make_rx_descriptor(core=0, pages=512)
        for slot in descriptor.slots:
            driver.translate_for_dma(slot.iova, "rx")
        assert iommu.stats.iotlb_misses == 1
        assert iommu.stats.memory_reads <= 3

    def test_chunk_and_frames_recycled(self):
        driver, _, physmem = make_driver()
        for _ in range(4):
            descriptor, _ = driver.make_rx_descriptor(core=0, pages=512)
            for _ in range(512):
                descriptor.take_run(1)
                descriptor.dma_done()
            driver.retire_rx_descriptor(descriptor, core=0)
        assert driver.chunks.live_chunk_count == 0
        assert physmem.huge_in_use == 0

    def test_constructor_validation(self):
        iommu = Iommu(IommuConfig())
        with pytest.raises(ValueError):
            StrictFamilyDriver(
                iommu,
                PhysicalMemory(64),
                num_cpus=1,
                preserve_ptcache=True,
                contiguous_iova=True,
                chunk_pages=64,
                hugepages=True,  # needs 512-page chunks
            )
