"""Pinned measurements of short app cells: the measurement window must not move.

Every app workload (Redis, Nginx, SPDK, netperf RPC) warms up, then
reads its counters over one window opened by ``Testbed.run``.  A change
that shifts where the window opens, what it clears or how a figure is
computed from its deltas moves these values, so they are compared for
exact equality.  The values were recorded when each app still ran its
own copy of the warm-up/snapshot/delta steps.
"""

import pytest

from repro.apps import run_netperf_rpc, run_nginx, run_redis, run_spdk

WARMUP_NS = 1_000_000.0
MEASURE_NS = 2_000_000.0
RPC_MEASURE_NS = 4_000_000.0

# (goodput_gbps, requests_per_second, iotlb/pg, l3/pg); Redis 8 KB SETs.
REDIS = {
    "strict": (59.371824, 912000.0, 1.6083877995642701, 0.8113652868554829),
    "fns": (96.909504, 1458000.0, 1.570981444220881, 0.012184216409568523),
}
# (goodput_gbps, requests_per_second); Nginx 512 KB pages.
NGINX = {
    "strict": (94.37184, 22500.0),
    "fns": (102.760448, 24500.0),
}
# (goodput_gbps, requests_per_second, iotlb/pg); SPDK 64 KB reads.
SPDK = {
    "strict": (80.740352, 154000.0, 1.1559862869198312),
    "fns": (90.701824, 173000.0, 1.1374384827751771),
}
# (rpc_count, percentiles_ns, mean_ns, background_gbps); 4 KB RPCs.
NETPERF = {
    "strict": (
        23,
        {
            50.0: 30285.917222687043,
            90.0: 42266.24706090242,
            99.0: 4022440.1257543718,
            99.9: 4022440.1257543718,
            99.99: 4022440.1257543718,
        },
        203197.14509918395,
        48.41472,
    ),
    "fns": (
        71,
        {
            50.0: 57443.72000002442,
            90.0: 63147.67169038439,
            99.0: 65635.19236890133,
            99.9: 65635.19236890133,
            99.99: 65635.19236890133,
        },
        56332.564576923556,
        99.328,
    ),
}

MODES = ("strict", "fns")


@pytest.mark.parametrize("mode", MODES)
def test_redis_cell_pinned(mode):
    r = run_redis(mode, 8192, warmup_ns=WARMUP_NS, measure_ns=MEASURE_NS)
    assert (
        r.goodput_gbps,
        r.requests_per_second,
        r.iotlb_misses_per_page,
        r.ptcache_l3_misses_per_page,
    ) == REDIS[mode]


@pytest.mark.parametrize("mode", MODES)
def test_nginx_cell_pinned(mode):
    r = run_nginx(mode, 524288, warmup_ns=WARMUP_NS, measure_ns=MEASURE_NS)
    assert (r.goodput_gbps, r.requests_per_second) == NGINX[mode]


@pytest.mark.parametrize("mode", MODES)
def test_spdk_cell_pinned(mode):
    r = run_spdk(mode, 65536, warmup_ns=WARMUP_NS, measure_ns=MEASURE_NS)
    assert (
        r.goodput_gbps,
        r.requests_per_second,
        r.iotlb_misses_per_page,
    ) == SPDK[mode]


@pytest.mark.parametrize("mode", MODES)
def test_netperf_cell_pinned(mode):
    r = run_netperf_rpc(
        mode, 4096, warmup_ns=WARMUP_NS, measure_ns=RPC_MEASURE_NS
    )
    assert (
        r.rpc_count,
        r.percentiles_ns,
        r.mean_ns,
        r.background_gbps,
    ) == NETPERF[mode]
