"""Unit tests for the top-level IOMMU: translation, walker, faults."""

import pytest

from repro.context import using
from repro.iommu import DmaFault, Iommu, IommuConfig
from repro.iommu.addr import PAGE_SIZE
from repro.iommu.invalidation import CPU_COST_NS
from repro.mem.latency import DEFAULT_LM_NS as LM
from repro.verify import InvalidationEvent, InvariantMonitor
from repro.verify.events import TranslateEvent


def make_iommu(**kwargs):
    return Iommu(IommuConfig(**kwargs))


class TestTranslate:
    def test_cold_translation_costs_four_reads(self):
        iommu = make_iommu()
        iommu.map_page(0x1000, 42)
        result = iommu.translate(0x1000)
        assert result.frame == 42
        assert not result.iotlb_hit
        assert result.memory_reads == 4

    def test_repeat_translation_hits_iotlb(self):
        iommu = make_iommu()
        iommu.map_page(0x1000, 42)
        iommu.translate(0x1000)
        result = iommu.translate(0x1000)
        assert result.iotlb_hit
        assert result.memory_reads == 0

    def test_neighbour_page_after_iotlb_invalidation_costs_one_read(self):
        """The F&S fast path: IOTLB miss but PTcache-L3 hit -> 1 read."""
        iommu = make_iommu()
        iommu.map_page(0x1000, 1)
        iommu.map_page(0x2000, 2)
        iommu.translate(0x1000)
        result = iommu.translate(0x2000)
        assert not result.iotlb_hit
        assert result.memory_reads == 1

    def test_unmapped_iova_faults(self):
        iommu = make_iommu()
        with pytest.raises(DmaFault):
            iommu.translate(0x1000)
        assert iommu.stats.faults == 1

    def test_strict_invalidation_blocks_device_access(self):
        """The strict safety property: after unmap + invalidate, the
        device can no longer reach the old frame."""
        iommu = make_iommu()
        iommu.map_page(0x1000, 42)
        iommu.translate(0x1000)
        iommu.unmap_range(0x1000, PAGE_SIZE)
        iommu.invalidation_queue.invalidate_range(
            0x1000, PAGE_SIZE, preserve_ptcache=False
        )
        with pytest.raises(DmaFault):
            iommu.translate(0x1000)

    def test_stale_hit_flagged_without_invalidation(self):
        """Deferred-mode hole: unmap without invalidation leaves a
        usable stale IOTLB entry."""
        iommu = make_iommu()
        iommu.check_stale_hits = True
        iommu.map_page(0x1000, 42)
        iommu.translate(0x1000)
        iommu.unmap_range(0x1000, PAGE_SIZE)
        result = iommu.translate(0x1000)  # no fault!
        assert result.iotlb_hit
        assert result.stale

    def test_preserve_ptcache_keeps_walk_short(self):
        """F&S idea A: IOTLB-only invalidation preserves the PTcaches,
        so the unavoidable IOTLB miss costs 1 read instead of 4."""
        iommu = make_iommu()
        for page in range(2):
            iommu.map_page(0x100000 + page * PAGE_SIZE, page)
        iommu.translate(0x100000)
        iommu.unmap_range(0x100000, PAGE_SIZE)
        iommu.invalidation_queue.invalidate_range(
            0x100000, PAGE_SIZE, preserve_ptcache=True
        )
        result = iommu.translate(0x100000 + PAGE_SIZE)
        assert not result.iotlb_hit
        assert result.memory_reads == 1

    def test_linux_invalidation_forces_full_walk(self):
        """Linux behaviour: PTcache entries die with the unmap, so the
        next nearby translation pays the full 4-read walk."""
        iommu = make_iommu()
        for page in range(2):
            iommu.map_page(0x100000 + page * PAGE_SIZE, page)
        iommu.translate(0x100000)
        iommu.unmap_range(0x100000, PAGE_SIZE)
        iommu.invalidation_queue.invalidate_range(
            0x100000, PAGE_SIZE, preserve_ptcache=False
        )
        result = iommu.translate(0x100000 + PAGE_SIZE)
        assert result.memory_reads == 4

    def test_source_tagging(self):
        # The traffic source travels with each translation's event.
        with using(monitor=InvariantMonitor()) as context:
            iommu = make_iommu()
        iommu.map_page(0x1000, 1)
        iommu.map_page(0x2000, 2)
        iommu.translate(0x1000, source="rx")
        iommu.translate(0x2000, source="tx_ack")
        assert [
            (event.iova, event.source)
            for event in context.monitor.trace()
            if isinstance(event, TranslateEvent)
        ] == [(0x1000, "rx"), (0x2000, "tx_ack")]


class TestWalkerTiming:
    def test_walk_costs_reads_times_lm(self):
        """Reads within one walk are sequential (level-dependent)."""
        iommu = make_iommu(walkers=1)
        finish = iommu.reserve_walk(now=0.0, memory_reads=4)
        assert finish == 4 * LM

    def test_single_walker_serializes_concurrent_walks(self):
        iommu = make_iommu(walkers=1)
        first = iommu.reserve_walk(now=0.0, memory_reads=2)
        second = iommu.reserve_walk(now=50.0, memory_reads=1)
        assert first == 2 * LM
        assert second == 3 * LM

    def test_parallel_walkers_overlap_walks(self):
        """Walks for different pages proceed on parallel channels."""
        iommu = make_iommu(walkers=2)
        first = iommu.reserve_walk(now=0.0, memory_reads=2)
        second = iommu.reserve_walk(now=0.0, memory_reads=2)
        third = iommu.reserve_walk(now=0.0, memory_reads=1)
        assert first == 2 * LM
        assert second == 2 * LM
        assert third == 3 * LM  # queues behind the least-loaded channel
        assert iommu.walker_busy_until == 3 * LM

    def test_tied_walkers_pick_the_first(self):
        """Among equally loaded channels the lowest-numbered one wins."""
        iommu = make_iommu(walkers=3)
        iommu.reserve_walk(0.0, 3, channel=0)
        iommu.reserve_walk(0.0, 1, channel=1)
        iommu.reserve_walk(0.0, 1, channel=2)
        # Channels free at 3, 1 and 1 reads: the tie goes to channel 1.
        assert iommu.reserve_walk(0.0, 1) == 2 * LM
        assert iommu.reserve_walk(0.0, 1, channel=2) == 2 * LM
        assert iommu.reserve_walk(0.0, 1, channel=1) == 3 * LM

    def test_idle_walker_starts_immediately(self):
        iommu = make_iommu(walkers=1)
        iommu.reserve_walk(now=0.0, memory_reads=1)
        finish = iommu.reserve_walk(now=1000.0, memory_reads=1)
        assert finish == 1000.0 + LM

    def test_zero_reads_is_free(self):
        iommu = make_iommu()
        assert iommu.reserve_walk(now=5.0, memory_reads=0) == 5.0

    def test_zero_walkers_rejected(self):
        with pytest.raises(ValueError):
            make_iommu(walkers=0)

    def test_contention_inflates_read_latency(self):
        iommu = make_iommu(walkers=1)
        relaxed = iommu.reserve_walk(0.0, 1, utilization=0.0)
        inflated = iommu.reserve_walk(relaxed, 1, utilization=0.9)
        assert inflated - relaxed > LM


class TestInvalidationQueue:
    def test_cpu_cost_accumulates(self):
        iommu = make_iommu()
        iommu.map_page(0x1000, 1)
        cost, _ = iommu.invalidation_queue.invalidate_range(
            0x1000, PAGE_SIZE, preserve_ptcache=True
        )
        assert cost == CPU_COST_NS
        assert iommu.invalidation_queue.total_cpu_ns == CPU_COST_NS

    def test_batched_invalidation_is_single_request(self):
        """F&S idea B2: one queue entry for a whole descriptor."""
        with using(monitor=InvariantMonitor()) as context:
            iommu = make_iommu()
        base = 0x200000
        for page in range(64):
            iommu.map_page(base + page * PAGE_SIZE, page)
            iommu.translate(base + page * PAGE_SIZE)
        iommu.invalidation_queue.invalidate_range(
            base, 64 * PAGE_SIZE, preserve_ptcache=True
        )
        assert iommu.stats.invalidation_requests == 1
        assert iommu.iotlb.resident_entries == 0
        requests = [
            event
            for event in context.monitor.trace()
            if isinstance(event, InvalidationEvent)
        ]
        assert len(requests) == 1
        assert requests[0].length == 64 * PAGE_SIZE

    def test_flush_all(self):
        iommu = make_iommu()
        iommu.map_page(0x1000, 1)
        iommu.translate(0x1000)
        iommu.invalidation_queue.flush_all()
        assert iommu.iotlb.resident_entries == 0
        assert iommu.ptcaches.l3.resident_entries == 0
