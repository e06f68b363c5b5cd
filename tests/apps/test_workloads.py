"""Integration tests for the five application workloads (short runs)."""

import pytest

from repro.apps import (
    run_bidirectional_iperf,
    run_iperf,
    run_netperf_rpc,
    run_nginx,
    run_redis,
    run_spdk,
)

WARMUP = 1_500_000.0
MEASURE = 3_500_000.0


class TestIperf:
    def test_off_saturates_link(self):
        result = run_iperf("off", 5, warmup_ns=WARMUP, measure_ns=MEASURE)
        assert result.rx_goodput_gbps > 95.0

    def test_modes_ordering(self):
        strict = run_iperf("strict", 5, warmup_ns=WARMUP, measure_ns=MEASURE)
        fns = run_iperf("fns", 5, warmup_ns=WARMUP, measure_ns=MEASURE)
        assert fns.rx_goodput_gbps > strict.rx_goodput_gbps

    def test_bidirectional_runs_both_directions(self):
        result = run_bidirectional_iperf(
            "off", 2, 2, warmup_ns=WARMUP, measure_ns=MEASURE
        )
        assert result.rx_goodput_gbps > 50.0
        assert result.tx_goodput_gbps > 50.0

    def test_rx_tx_interference_hits_strict_hardest(self):
        strict = run_bidirectional_iperf(
            "strict", 2, 2, warmup_ns=WARMUP, measure_ns=MEASURE
        )
        fns = run_bidirectional_iperf(
            "fns", 2, 2, warmup_ns=WARMUP, measure_ns=MEASURE
        )
        assert fns.rx_goodput_gbps > strict.rx_goodput_gbps * 1.2


class TestNetperf:
    def test_records_latency_distribution(self):
        result = run_netperf_rpc(
            "off", 4096, warmup_ns=WARMUP, measure_ns=8e6
        )
        assert result.rpc_count > 20
        assert result.percentiles_ns[50.0] > 0
        assert (
            result.percentiles_ns[99.9] >= result.percentiles_ns[50.0]
        )
        assert result.background_gbps > 50.0

    def test_fns_tail_tracks_off(self):
        off = run_netperf_rpc("off", 1024, warmup_ns=WARMUP, measure_ns=8e6)
        fns = run_netperf_rpc("fns", 1024, warmup_ns=WARMUP, measure_ns=8e6)
        assert fns.percentiles_ns[99.0] < off.percentiles_ns[99.0] * 3


class TestRedis:
    def test_strict_degrades_fns_recovers(self):
        off = run_redis("off", 8192, warmup_ns=WARMUP, measure_ns=MEASURE)
        strict = run_redis("strict", 8192, warmup_ns=WARMUP, measure_ns=MEASURE)
        fns = run_redis("fns", 8192, warmup_ns=WARMUP, measure_ns=MEASURE)
        assert strict.goodput_gbps < off.goodput_gbps * 0.8
        assert fns.goodput_gbps > strict.goodput_gbps * 1.2

    def test_reply_per_request_tx_traffic(self):
        """Redis's per-SET replies create IOTLB contention, visible as
        misses above the compulsory rate at small values (§4.4)."""
        small = run_redis("fns", 4096, warmup_ns=WARMUP, measure_ns=MEASURE)
        large = run_redis("fns", 131072, warmup_ns=WARMUP, measure_ns=MEASURE)
        assert small.iotlb_misses_per_page > large.iotlb_misses_per_page

    def test_requests_counted(self):
        result = run_redis("off", 8192, warmup_ns=WARMUP, measure_ns=MEASURE)
        assert result.requests_per_second > 10_000


class TestNginx:
    def test_app_limited_off_throughput(self):
        result = run_nginx("off", 524288, warmup_ns=WARMUP, measure_ns=MEASURE)
        assert 60.0 < result.goodput_gbps < 99.5

    def test_modes_ordering(self):
        off = run_nginx("off", 524288, warmup_ns=WARMUP, measure_ns=MEASURE)
        strict = run_nginx("strict", 524288, warmup_ns=WARMUP, measure_ns=MEASURE)
        fns = run_nginx("fns", 524288, warmup_ns=WARMUP, measure_ns=MEASURE)
        # Large-page Nginx: strict under-degrades vs the paper in this
        # simulator (see EXPERIMENTS.md); assert non-inversion.
        assert strict.goodput_gbps <= off.goodput_gbps * 1.1
        assert fns.goodput_gbps >= strict.goodput_gbps * 0.95


class TestSpdk:
    def test_io_depth_sustains_throughput(self):
        result = run_spdk("off", 65536, warmup_ns=WARMUP, measure_ns=MEASURE)
        assert result.goodput_gbps > 70.0
        assert result.requests_per_second > 50_000

    def test_modes_ordering(self):
        off = run_spdk("off", 65536, warmup_ns=WARMUP, measure_ns=MEASURE)
        strict = run_spdk("strict", 65536, warmup_ns=WARMUP, measure_ns=MEASURE)
        fns = run_spdk("fns", 65536, warmup_ns=WARMUP, measure_ns=MEASURE)
        assert strict.goodput_gbps < off.goodput_gbps * 0.95
        assert fns.goodput_gbps > strict.goodput_gbps

    def test_small_blocks_inflate_iotlb_misses(self):
        small = run_spdk("strict", 32768, warmup_ns=WARMUP, measure_ns=MEASURE)
        large = run_spdk("strict", 262144, warmup_ns=WARMUP, measure_ns=MEASURE)
        assert small.iotlb_misses_per_page > large.iotlb_misses_per_page
