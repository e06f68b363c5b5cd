"""SPDK remote-storage read workload (Fig 11c).

SPDK client threads on the measured host issue block read requests
(32-256 KB) against SPDK server instances on the peer, with an IO
depth of 8 requests per core (the depth the paper — and i10/blk-switch
before it — found saturates throughput).  Block data arrives through
the measured host's Rx datapath; per-read request packets form the Tx
traffic that, at small block sizes, inflates IOTLB contention (§4.4's
~1.5x IOTLB miss increase at 32 KB vs 256 KB blocks).

SPDK's userspace polling has very low per-IO CPU cost, so throughput
is protection-bound, not CPU-bound.

Setup follows §4.2: 8 cores, 9 K MTU.
"""

from __future__ import annotations

from .base import AppResult, RequestResponseApp, paper_app_testbed

__all__ = ["run_spdk", "spdk_per_io_cost_ns"]

NVME_READ_CMD_BYTES = 128  # command capsule over TCP
IO_DEPTH = 8  # outstanding reads per core


def spdk_per_io_cost_ns(message_bytes: int) -> float:
    """Userspace polling completion cost: tiny and size-independent."""
    return 600.0


def run_spdk(
    mode: str,
    block_bytes: int,
    warmup_ns: float = 3_000_000.0,
    measure_ns: float = 10_000_000.0,
) -> AppResult:
    """Run one (mode, block size) SPDK point; one read is one request."""
    testbed = paper_app_testbed(mode)
    app = RequestResponseApp(
        testbed,
        initiator="host",
        request_bytes=NVME_READ_CMD_BYTES,
        response_bytes=block_bytes,
        pipeline_depth=IO_DEPTH,
        connections=testbed.config.num_cores,
        host_app_cost_ns=spdk_per_io_cost_ns,
    )
    return app.run(warmup_ns, measure_ns)
