"""netperf-style RPC latency workload (Fig 9).

A latency-sensitive request/response application colocated with
throughput-bound iperf flows, as in multi-tenant deployments: the RPC
runs on its own core (no CPU interference) but shares the NIC, PCIe,
IOMMU and switch with the iperf traffic — so its tail latency picks up
exactly the queueing (P99) and drop/retransmission (P99.9+) inflation
the paper measures.
"""

from __future__ import annotations

from ..host.config import HostConfig
from ..host.testbed import Testbed
from .base import AppResult, RequestResponseApp

__all__ = ["run_netperf_rpc"]

BACKGROUND_FLOWS = 5  # colocated iperf flows, one core each


def run_netperf_rpc(
    mode: str,
    rpc_bytes: int,
    warmup_ns: float = 3_000_000.0,
    measure_ns: float = 30_000_000.0,
) -> AppResult:
    """Run the Fig 9 workload for one (mode, RPC size) point.

    The host gets one extra core beyond the iperf cores; the RPC
    connection is pinned there.  ``background_gbps`` is the iperf
    flows' goodput over the window.
    """
    config = HostConfig.cascade_lake(
        mode=mode, num_cores=BACKGROUND_FLOWS + 1
    )
    testbed = Testbed(config)
    rpc_core = config.num_cores - 1
    testbed.add_rx_flows(BACKGROUND_FLOWS, cores=list(range(rpc_core)))
    app = RequestResponseApp(
        testbed,
        initiator="remote",
        request_bytes=rpc_bytes,
        response_bytes=rpc_bytes,
        pipeline_depth=1,
        connections=1,
        cores=[rpc_core],
        record_latency=True,
    )
    return app.run(warmup_ns, measure_ns)
