"""Unit tests for the protection drivers (all four safety modes)."""

from unittest import mock

import pytest

from repro.context import using
from repro.iommu import DmaFault, Iommu, IommuConfig
from repro.iommu.addr import PAGE_SIZE
from repro.mem import PhysicalMemory
from repro.protection import (
    DeferredDriver,
    PassthroughDriver,
    StrictFamilyDriver,
    deferred,
)
from repro.verify import InvalidationEvent, InvariantMonitor


def make_strict(variant="linux", **kwargs):
    iommu = Iommu(IommuConfig())
    physmem = PhysicalMemory(1 << 16)
    factory = {
        "linux": StrictFamilyDriver.linux_strict,
        "fns": StrictFamilyDriver.fns,
        "A": StrictFamilyDriver.linux_plus_preserve,
        "B": StrictFamilyDriver.linux_plus_contiguous,
    }[variant]
    return factory(iommu, physmem, num_cpus=2, **kwargs), iommu, physmem


def invalidations(monitor):
    """Every queued IOTLB invalidation the monitor saw, in order."""
    return [
        (event.iova, event.length, event.preserve_ptcache)
        for event in monitor.trace()
        if isinstance(event, InvalidationEvent)
    ]


class TestPassthrough:
    def test_descriptor_uses_physical_addresses(self):
        physmem = PhysicalMemory(1 << 10)
        driver = PassthroughDriver(physmem)
        descriptor, cost = driver.make_rx_descriptor(core=0, pages=4)
        assert cost == 0.0
        for slot in descriptor.slots:
            assert slot.iova == slot.frame << 12
        assert driver.translate_for_dma(descriptor.slots[0].iova, "rx") == 0

    def test_retire_returns_frames(self):
        physmem = PhysicalMemory(1 << 10)
        driver = PassthroughDriver(physmem)
        descriptor, _ = driver.make_rx_descriptor(core=0, pages=4)
        driver.retire_rx_descriptor(descriptor, core=0)
        assert physmem.frames_in_use == 0

    def test_tx_roundtrip(self):
        physmem = PhysicalMemory(1 << 10)
        driver = PassthroughDriver(physmem)
        mapping, _ = driver.map_tx_page(core=0)
        driver.retire_tx_pages([mapping], core=0)
        assert physmem.frames_in_use == 0

    def test_device_always_has_access(self):
        driver = PassthroughDriver(PhysicalMemory(16))
        assert driver.device_can_access(0x1234000)
        assert not driver.strict_safety


class TestStrictSafetyProperty:
    @pytest.mark.parametrize("variant", ["linux", "fns", "A", "B"])
    def test_no_device_access_after_retire(self, variant):
        """The strict property for every strict-family configuration:
        the instant retire returns, the device cannot reach any page of
        the descriptor — neither via IOTLB nor via the page table."""
        driver, iommu, _ = make_strict(variant)
        descriptor, _ = driver.make_rx_descriptor(core=0, pages=64)
        # The device translates (and caches) every page.
        for slot in descriptor.slots:
            driver.translate_for_dma(slot.iova, "rx")
            descriptor.take_run(1)
            descriptor.dma_done()
        driver.retire_rx_descriptor(descriptor, core=0)
        for slot in descriptor.slots:
            assert not driver.device_can_access(slot.iova)
            with pytest.raises(DmaFault):
                iommu.translate(slot.iova)

    @pytest.mark.parametrize("variant", ["linux", "fns", "A", "B"])
    def test_tx_pages_sealed_after_retire(self, variant):
        driver, iommu, _ = make_strict(variant)
        mappings = []
        for _ in range(8):
            mapping, _ = driver.map_tx_page(core=0)
            driver.translate_for_dma(mapping.iova, "tx_ack")
            mappings.append(mapping)
        driver.retire_tx_pages(mappings, core=0)
        for mapping in mappings:
            assert not driver.device_can_access(mapping.iova)

    def test_deferred_mode_leaves_stale_window(self):
        """The contrast: deferred mode admits device access after unmap
        (the weaker safety property F&S refuses)."""
        iommu = Iommu(IommuConfig())
        physmem = PhysicalMemory(1 << 16)
        with mock.patch.object(deferred, "FLUSH_THRESHOLD", 10_000):
            driver = DeferredDriver(iommu, physmem, num_cpus=1)
        descriptor, _ = driver.make_rx_descriptor(core=0, pages=4)
        for slot in descriptor.slots:
            driver.translate_for_dma(slot.iova, "rx")
            descriptor.take_run(1)
            descriptor.dma_done()
        driver.retire_rx_descriptor(descriptor, core=0)
        # The stale IOTLB entries still translate.
        assert any(
            driver.device_can_access(slot.iova) for slot in descriptor.slots
        )
        driver.translate_for_dma(descriptor.slots[0].iova, "rx")
        assert driver.iommu.stale_translations == 1
        # A flush closes the window.
        driver.flush()
        assert not any(
            driver.device_can_access(slot.iova) for slot in descriptor.slots
        )


class TestFnsMechanisms:
    def test_fns_descriptor_iovas_contiguous(self):
        driver, _, _ = make_strict("fns")
        descriptor, _ = driver.make_rx_descriptor(core=0, pages=64)
        iovas = [slot.iova for slot in descriptor.slots]
        assert iovas == list(range(iovas[0], iovas[0] + 64 * PAGE_SIZE, PAGE_SIZE))

    def test_linux_descriptor_iovas_eventually_scatter(self):
        driver, _, _ = make_strict("linux")
        # Churn: map/retire descriptors with Tx (ACK) traffic whose
        # completions lag a few rounds, as in the real datapath.
        from collections import deque

        tx_in_flight = deque()
        for _ in range(30):
            descriptor, _ = driver.make_rx_descriptor(core=0, pages=64)
            for slot in descriptor.slots:
                descriptor.take_run(1)
                descriptor.dma_done()
            for _ in range(4):
                mapping, _ = driver.map_tx_page(core=0)
                tx_in_flight.append(mapping)
            driver.retire_rx_descriptor(descriptor, core=0)
            while len(tx_in_flight) > 12:
                driver.retire_tx_pages([tx_in_flight.popleft()], core=0)
        descriptor, _ = driver.make_rx_descriptor(core=0, pages=64)
        iovas = [slot.iova for slot in descriptor.slots]
        gaps = [
            abs(b - a) != PAGE_SIZE for a, b in zip(iovas, iovas[1:])
        ]
        assert any(gaps)

    def test_fns_single_invalidation_request_per_descriptor(self):
        with using(monitor=InvariantMonitor()) as context:
            driver, iommu, _ = make_strict("fns")
        descriptor, _ = driver.make_rx_descriptor(core=0, pages=64)
        for _ in range(64):
            descriptor.take_run(1)
            descriptor.dma_done()
        before = iommu.stats.invalidation_requests
        driver.retire_rx_descriptor(descriptor, core=0)
        assert iommu.stats.invalidation_requests - before == 1
        # One ranged IOTLB-only descriptor over the whole buffer.
        assert invalidations(context.monitor) == [
            (descriptor.slots[0].iova, 64 * PAGE_SIZE, True)
        ]

    def test_linux_64_invalidation_requests_per_descriptor(self):
        with using(monitor=InvariantMonitor()) as context:
            driver, iommu, _ = make_strict("linux")
        descriptor, _ = driver.make_rx_descriptor(core=0, pages=64)
        for _ in range(64):
            descriptor.take_run(1)
            descriptor.dma_done()
        before = iommu.stats.invalidation_requests
        driver.retire_rx_descriptor(descriptor, core=0)
        assert iommu.stats.invalidation_requests - before == 64
        # One page-sized descriptor per page, PTcaches dropped.
        assert invalidations(context.monitor) == [
            (slot.iova, PAGE_SIZE, False) for slot in descriptor.slots
        ]

    def test_fns_preserves_ptcache_across_retire(self):
        driver, iommu, _ = make_strict("fns")
        first, _ = driver.make_rx_descriptor(core=0, pages=64)
        second, _ = driver.make_rx_descriptor(core=0, pages=64)
        for slot in first.slots:
            driver.translate_for_dma(slot.iova, "rx")
            first.take_run(1)
            first.dma_done()
        driver.retire_rx_descriptor(first, core=0)
        # The next descriptor's translation should walk only PT-L4.
        reads = driver.translate_for_dma(second.slots[0].iova, "rx")
        assert reads <= 2  # L3 hit (1) or at worst a fresh L3 region (cold)

    def test_linux_drops_ptcache_on_retire(self):
        # The DMA's walk caches the IOVA's PT-L4 page in the PTcache-L3;
        # Linux strict invalidates it with the IOTLB entry on retire,
        # F&S invalidates the IOTLB only and keeps it.
        def l3_holds_iova_after_retire(variant):
            driver, iommu, _ = make_strict(variant)
            descriptor, _ = driver.make_rx_descriptor(core=0, pages=1)
            iova = descriptor.slots[0].iova
            descriptor.take_run(1)
            assert driver.translate_for_dma(iova, "rx") > 0
            descriptor.dma_done()
            assert iommu.ptcaches.l3.contains(iova)
            driver.retire_rx_descriptor(descriptor, core=0)
            return iommu.ptcaches.l3.contains(iova)

        assert not l3_holds_iova_after_retire("linux")
        assert l3_holds_iova_after_retire("fns")

    def test_fns_cpu_cost_lower_than_linux(self):
        def retire_cost(variant):
            driver, _, _ = make_strict(variant)
            descriptor, _ = driver.make_rx_descriptor(core=0, pages=64)
            for _ in range(64):
                descriptor.take_run(1)
                descriptor.dma_done()
            return driver.retire_rx_descriptor(descriptor, core=0)

        assert retire_cost("fns") < retire_cost("linux") / 3

    def test_sub_chunk_descriptors_slice_chunks(self):
        """Single-page-descriptor devices (Intel ICE, paper §3
        "Generality"): descriptors smaller than a chunk carve
        sequential slices across descriptors, like the Tx datapath."""
        driver, iommu, _ = make_strict("fns")
        descriptors = []
        for _ in range(4):
            descriptor, _ = driver.make_rx_descriptor(core=0, pages=1)
            descriptors.append(descriptor)
        iovas = [d.slots[0].iova for d in descriptors]
        # Consecutive descriptors get consecutive IOVAs (contiguity
        # across descriptors).
        assert iovas[1] == iovas[0] + PAGE_SIZE
        assert iovas[2] == iovas[1] + PAGE_SIZE
        for descriptor in descriptors:
            descriptor.take_run(1)
            descriptor.dma_done()
            driver.retire_rx_descriptor(descriptor, core=0)
            assert not driver.device_can_access(descriptor.slots[0].iova)
        # The chunk is recycled only after all its slices retire.
        assert driver.chunks.live_chunk_count == 1  # 60 slices remain


class TestTxContiguous:
    def test_tx_retire_groups_runs(self):
        driver, iommu, _ = make_strict("fns")
        mappings = []
        for _ in range(8):
            mapping, _ = driver.map_tx_page(core=0)
            mappings.append(mapping)
        before = iommu.stats.invalidation_requests
        driver.retire_tx_pages(mappings, core=0)
        # 8 consecutive slices of one chunk: a single ranged request.
        assert iommu.stats.invalidation_requests - before == 1

    def test_tx_chunk_recycled_after_full_release(self):
        driver, _, _ = make_strict("fns")
        mappings = []
        for _ in range(64):
            mapping, _ = driver.map_tx_page(core=0)
            mappings.append(mapping)
        driver.retire_tx_pages(mappings, core=0)
        assert driver.chunks.live_chunk_count == 0

    def test_tx_runs_split_across_chunks(self):
        driver, iommu, _ = make_strict("fns")
        mappings = []
        for _ in range(70):  # spans two 64-page chunks
            mapping, _ = driver.map_tx_page(core=0)
            mappings.append(mapping)
        before = iommu.stats.invalidation_requests
        driver.retire_tx_pages(mappings, core=0)
        assert iommu.stats.invalidation_requests - before == 2


class TestAblationConfigurations:
    def test_names(self):
        assert make_strict("linux")[0].name == "linux-strict"
        assert make_strict("fns")[0].name == "fns"
        assert make_strict("A")[0].name == "linux+A"
        assert make_strict("B")[0].name == "linux+B"

    def test_linux_plus_a_preserves_but_scatters(self):
        driver, iommu, _ = make_strict("A")
        descriptor, _ = driver.make_rx_descriptor(core=0, pages=64)
        for slot in descriptor.slots:
            driver.translate_for_dma(slot.iova, "rx")
            descriptor.take_run(1)
            descriptor.dma_done()
        l3_invalidations_before = iommu.ptcaches.l3.invalidations
        driver.retire_rx_descriptor(descriptor, core=0)
        # Preserve mode never drops PTcache entries on unmap.
        assert iommu.ptcaches.l3.invalidations == l3_invalidations_before

    def test_linux_plus_b_batches_but_drops_ptcache(self):
        driver, iommu, _ = make_strict("B")
        descriptor, _ = driver.make_rx_descriptor(core=0, pages=64)
        for slot in descriptor.slots:
            driver.translate_for_dma(slot.iova, "rx")
            descriptor.take_run(1)
            descriptor.dma_done()
        before_requests = iommu.stats.invalidation_requests
        l3_before = iommu.ptcaches.l3.invalidations
        driver.retire_rx_descriptor(descriptor, core=0)
        assert iommu.stats.invalidation_requests - before_requests == 1
        assert iommu.ptcaches.l3.invalidations > l3_before
