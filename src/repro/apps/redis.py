"""Redis SET workload (Fig 11a).

One Redis server instance per core on the measured host; remote client
threads issue 100% SET requests with 4 B keys and 4-128 KB values,
keeping 32 requests pipelined per connection (the paper finds that
depth saturates 100 Gbps).  The measured host *receives* the values
(Rx-datapath bound) and sends a small +OK reply per request — the
reply-per-request Tx traffic that inflates IOTLB contention at small
value sizes, the §4.4 gap.

Setup follows §4.2: 8 cores, 9 K MTU.
"""

from __future__ import annotations

from .base import AppResult, RequestResponseApp, paper_app_testbed

__all__ = ["run_redis", "redis_server_cost_ns"]

REDIS_REPLY_BYTES = 64  # "+OK\r\n" plus protocol/TCP framing
CONNECTIONS_PER_CORE = 2
PIPELINE_DEPTH = 32


def redis_server_cost_ns(message_bytes: int) -> float:
    """Per-SET server CPU: fixed command cost + value memcpy."""
    return 1_200.0 + 0.03 * message_bytes


def run_redis(
    mode: str,
    value_bytes: int,
    warmup_ns: float = 3_000_000.0,
    measure_ns: float = 10_000_000.0,
) -> AppResult:
    """Run one (mode, value size) Redis point."""
    testbed = paper_app_testbed(mode)
    app = RequestResponseApp(
        testbed,
        initiator="remote",
        request_bytes=value_bytes + 4,  # 4 B key
        response_bytes=REDIS_REPLY_BYTES,
        pipeline_depth=PIPELINE_DEPTH,
        connections=CONNECTIONS_PER_CORE * testbed.config.num_cores,
        host_app_cost_ns=redis_server_cost_ns,
    )
    return app.run(warmup_ns, measure_ns)
