"""Integration tests: the full datapath end to end (short runs).

These assert the paper's *qualitative* orderings on short simulations;
the benchmark suite reproduces the full figures.
"""

import pytest

import repro.protection.deferred as deferred_module
from repro.host import HostConfig, Testbed

WARMUP = 2_000_000.0
MEASURE = 4_000_000.0


def run_mode(mode, flows=5, **overrides):
    testbed = Testbed(HostConfig.cascade_lake(mode=mode, **overrides))
    testbed.add_rx_flows(flows)
    return testbed.run(warmup_ns=WARMUP, measure_ns=MEASURE)


class TestThroughputOrdering:
    def test_off_reaches_line_rate(self):
        result = run_mode("off")
        assert result.rx_goodput_gbps > 95.0

    def test_strict_degrades_fns_recovers(self):
        strict = run_mode("strict")
        fns = run_mode("fns")
        off = run_mode("off")
        assert strict.rx_goodput_gbps < off.rx_goodput_gbps * 0.92
        assert fns.rx_goodput_gbps > off.rx_goodput_gbps * 0.95

    def test_deferred_trades_safety_for_speed(self, monkeypatch):
        """Deferred mode is faster than strict — and leaves a window in
        which a malicious device could still reach unmapped pages (the
        benign workload never exploits it, so we probe adversarially)."""
        monkeypatch.setattr(deferred_module, "FLUSH_THRESHOLD", 10**9)
        testbed = Testbed(HostConfig.cascade_lake(mode="deferred"))
        testbed.add_rx_flows(5)
        deferred = testbed.run(warmup_ns=WARMUP, measure_ns=MEASURE)
        strict = run_mode("strict")
        assert deferred.rx_goodput_gbps > strict.rx_goodput_gbps
        driver = testbed.host.driver
        # Unflushed unmaps have accumulated ...
        assert driver.pending_invalidations > 0
        # ... and the device can still reach recently unmapped IOVAs.
        recent = [iova for iova, _pages, _core in driver._deferred[-256:]]
        assert any(driver.device_can_access(iova) for iova in recent)

    def test_strict_modes_have_no_stale_translations(self):
        for mode in ("strict", "fns"):
            assert run_mode(mode).stale_translations == 0


class TestMissAccounting:
    def test_strict_compulsory_iotlb_miss_per_page(self):
        result = run_mode("strict")
        assert result.iotlb_misses_per_page >= 1.0

    def test_fns_compulsory_miss_retained(self):
        """F&S does not (and cannot) reduce IOTLB misses below 1/page
        while keeping strict safety."""
        result = run_mode("fns")
        assert result.iotlb_misses_per_page >= 1.0

    def test_fns_zero_l1_l2_misses(self):
        result = run_mode("fns")
        assert result.ptcache_l1_misses_per_page == 0.0
        assert result.ptcache_l2_misses_per_page == 0.0

    def test_fns_l3_misses_order_of_magnitude_below_strict(self):
        strict = run_mode("strict")
        fns = run_mode("fns")
        assert strict.ptcache_l3_misses_per_page > 0.1
        assert (
            fns.ptcache_l3_misses_per_page
            < strict.ptcache_l3_misses_per_page / 10
        )

    def test_m_is_sum_of_components(self):
        result = run_mode("strict")
        expected = (
            result.iotlb_misses_per_page
            + result.ptcache_l1_misses_per_page
            + result.ptcache_l2_misses_per_page
            + result.ptcache_l3_misses_per_page
        )
        assert result.memory_reads_per_page == pytest.approx(expected)

    def test_m1_equals_m2(self):
        """Both upper levels are invalidated by the same events."""
        result = run_mode("strict")
        assert result.ptcache_l1_misses_per_page == pytest.approx(
            result.ptcache_l2_misses_per_page, abs=0.01
        )

    def test_off_mode_has_no_iommu_traffic(self):
        result = run_mode("off")
        assert result.memory_reads_per_page == 0.0
        assert result.invalidation_requests == 0


class TestInvalidationEconomy:
    def test_fns_uses_64x_fewer_invalidation_requests(self):
        strict = run_mode("strict")
        fns = run_mode("fns")
        per_page_strict = strict.invalidation_requests / strict.rx_data_pages
        per_page_fns = fns.invalidation_requests / fns.rx_data_pages
        assert per_page_strict > 0.9  # ~1 per page (+ Tx)
        assert per_page_fns < per_page_strict / 8


class TestDropBehaviour:
    def test_strict_drops_grow_with_flows(self):
        few = run_mode("strict", flows=5)
        many = run_mode("strict", flows=40)
        assert many.drop_fraction > few.drop_fraction

    def test_fns_eliminates_protection_drops(self):
        fns = run_mode("fns", flows=40)
        off = run_mode("off", flows=40)
        assert fns.drop_fraction <= off.drop_fraction + 0.001


class TestLocalityTrace:
    @staticmethod
    def run_traced(mode):
        """Run a 5-flow testbed; also return the allocation trace's
        length just before and just after the window opens."""
        testbed = Testbed(HostConfig.cascade_lake(mode=mode))
        testbed.add_rx_flows(5)
        trace = testbed.host.allocation_trace
        snapshot = testbed._snapshot
        lengths = []

        def open_window():
            lengths.append(len(trace))
            snap = snapshot()
            lengths.append(len(trace))
            return snap

        testbed._snapshot = open_window
        testbed.run(warmup_ns=WARMUP, measure_ns=MEASURE)
        return trace, lengths

    def test_fns_trace_is_chunked(self):
        trace, _lengths = self.run_traced("fns")
        sizes = {pages for _iova, pages in trace}
        assert sizes <= {64}

    def test_strict_trace_is_per_page(self):
        trace, _lengths = self.run_traced("strict")
        sizes = {pages for _iova, pages in trace}
        assert sizes == {1}

    @pytest.mark.parametrize("mode", ["strict", "fns"])
    def test_trace_holds_the_window_only(self, mode):
        # Ring fill and warm-up allocate; the window opens on an empty
        # trace, so none of that reaches the locality summary.
        trace, (before, after) = self.run_traced(mode)
        assert before > 0
        assert after == 0
        assert trace


class TestDeterminism:
    def test_same_config_same_results(self):
        first = run_mode("strict")
        second = run_mode("strict")
        assert first.rx_goodput_gbps == second.rx_goodput_gbps
        assert first.iotlb_misses_per_page == second.iotlb_misses_per_page
        assert first.drops == second.drops


class TestConservation:
    def test_no_frame_leaks_in_steady_state(self):
        """Frames allocated == frames in rings + in flight; after the
        run, usage is bounded by the posted working set."""
        testbed = Testbed(HostConfig.cascade_lake(mode="fns"))
        testbed.add_rx_flows(5)
        testbed.run(warmup_ns=WARMUP, measure_ns=MEASURE)
        host = testbed.host
        posted_pages = sum(
            descriptor.size
            for ring in host.nic.rings
            for descriptor in ring._descriptors
        )
        # Frames in use should be close to the posted pages (plus a few
        # in-flight Tx pages), never unbounded.
        assert host.physmem.frames_in_use < posted_pages + 2000

    def test_fns_page_table_never_reclaims(self):
        """Descriptor-granularity unmaps never reclaim PT pages, so
        F&S never needs its PTcache fallback."""
        testbed = Testbed(HostConfig.cascade_lake(mode="fns"))
        testbed.add_rx_flows(5)
        testbed.run(warmup_ns=WARMUP, measure_ns=MEASURE)
        assert testbed.host.iommu.page_table.stats.pages_reclaimed == 0
        assert testbed.host.driver.ptcache_fallback_invalidations == 0
