"""Unit tests for 2 MB huge mappings (the §5 extension)."""

import pytest

from repro.iommu import Iommu, IommuConfig
from repro.iommu.addr import PAGE_SIZE, PTL4_PAGE_SIZE
from repro.iommu.iotlb import HUGE_ENTRIES
from repro.iommu.pagetable import HugeMapping, IOPageTable, MappingError

BASE = 0x40000000  # 2 MB aligned


class TestPageTableHuge:
    def test_map_and_walk(self):
        table = IOPageTable()
        table.map_huge(BASE, 9000)
        walk = table.walk(BASE + 5 * PAGE_SIZE)
        assert walk.huge
        assert walk.frame == 9005
        assert [p.level for p in walk.pages] == [1, 2, 3]

    def test_counts_512_pages(self):
        table = IOPageTable()
        table.map_huge(BASE, 9000)
        assert table.mapped_pages == 512

    def test_unaligned_rejected(self):
        table = IOPageTable()
        with pytest.raises(MappingError):
            table.map_huge(BASE + PAGE_SIZE, 9000)

    def test_conflict_with_4k_mapping_rejected(self):
        table = IOPageTable()
        table.map_page(BASE, 1)
        with pytest.raises(MappingError):
            table.map_huge(BASE, 9000)

    def test_full_unmap_removes_leaf_without_reclaim(self):
        """Removing a huge leaf frees no page-table page, so PTcache
        preservation stays safe."""
        table = IOPageTable()
        table.map_huge(BASE, 9000)
        reclaimed = table.unmap_range(BASE, PTL4_PAGE_SIZE)
        assert reclaimed == []
        assert table.walk(BASE) is None
        assert table.mapped_pages == 0

    def test_partial_unmap_rejected(self):
        table = IOPageTable()
        table.map_huge(BASE, 9000)
        with pytest.raises(MappingError):
            table.unmap_range(BASE, PAGE_SIZE)
        with pytest.raises(MappingError):
            table.unmap_range(BASE + PTL4_PAGE_SIZE // 2, PTL4_PAGE_SIZE // 2)

    def test_remap_after_unmap(self):
        table = IOPageTable()
        table.map_huge(BASE, 9000)
        table.unmap_range(BASE, PTL4_PAGE_SIZE)
        table.map_huge(BASE, 7000)
        assert table.walk(BASE).frame == 7000

    def test_huge_and_4k_coexist_in_different_regions(self):
        table = IOPageTable()
        table.map_huge(BASE, 9000)
        table.map_page(BASE + PTL4_PAGE_SIZE, 42)
        assert table.walk(BASE).huge
        assert not table.walk(BASE + PTL4_PAGE_SIZE).huge


class TestIommuHugeTranslation:
    def make(self):
        iommu = Iommu(IommuConfig())
        iommu.page_table.map_huge(BASE, 9000)
        return iommu

    def test_cold_walk_costs_three_reads(self):
        """Huge walks end at PT-L3: at most 3 reads, never 4."""
        iommu = self.make()
        result = iommu.translate(BASE)
        assert result.memory_reads == 3
        assert result.frame == 9000

    def test_one_entry_covers_2mb(self):
        iommu = self.make()
        iommu.translate(BASE)
        for page in (1, 17, 511):
            result = iommu.translate(BASE + page * PAGE_SIZE)
            assert result.iotlb_hit
            assert result.frame == 9000 + page

    def test_upper_ptcache_shortens_huge_walk_to_one_read(self):
        iommu = self.make()
        iommu.translate(BASE)
        iommu.invalidation_queue.invalidate_range(
            BASE, PTL4_PAGE_SIZE, preserve_ptcache=True
        )
        result = iommu.translate(BASE)
        assert not result.iotlb_hit
        assert result.memory_reads == 1  # PTcache-L2 hit -> PT-L3 read

    def test_ranged_invalidation_drops_huge_entry(self):
        iommu = self.make()
        iommu.translate(BASE)
        assert iommu.iotlb.contains(BASE + 100 * PAGE_SIZE)
        iommu.iotlb.invalidate_range(BASE, PTL4_PAGE_SIZE)
        assert not iommu.iotlb.contains(BASE)

    def test_huge_entries_lru_bounded(self):
        iommu = Iommu(IommuConfig())
        capacity = HUGE_ENTRIES
        for index in range(capacity + 8):
            base = BASE + index * PTL4_PAGE_SIZE
            iommu.page_table.map_huge(base, 10_000 + index * 512)
            iommu.translate(base)
        assert len(iommu.iotlb._huge) == capacity

    def test_m3_never_counted_for_huge_walks(self):
        iommu = self.make()
        iommu.translate(BASE)
        assert iommu.stats.ptcache_counted_misses[3] == 0
        assert iommu.stats.ptcache_counted_misses[1] == 1
