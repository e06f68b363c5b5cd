"""Nginx/wrk web-serving workload (Fig 11b).

wrk-style clients fetch 128 KB - 2 MB web pages (the paper cites ~2 MB
as today's average page weight) over persistent connections.  The
measured host is the end receiving the bulk page data through its Rx
datapath, sending a small HTTP GET per transaction; per-page HTTP
processing costs cap application throughput around 90 Gbps even
without memory protection, matching the paper's observation that Nginx
is partly application-limited.

Setup follows §4.2: 8 cores, 9 K MTU.
"""

from __future__ import annotations

from .base import AppResult, RequestResponseApp, paper_app_testbed

__all__ = ["run_nginx", "nginx_request_cost_ns"]

HTTP_GET_BYTES = 256  # request line + headers
CONNECTIONS_PER_CORE = 4
PIPELINE_DEPTH = 2


def nginx_request_cost_ns(message_bytes: int) -> float:
    """Per-transaction HTTP processing: parsing, headers, buffers."""
    return 9_000.0 + 0.035 * message_bytes


def run_nginx(
    mode: str,
    page_bytes: int,
    warmup_ns: float = 3_000_000.0,
    measure_ns: float = 10_000_000.0,
) -> AppResult:
    """Run one (mode, page size) Nginx point."""
    testbed = paper_app_testbed(mode)
    app = RequestResponseApp(
        testbed,
        initiator="host",
        request_bytes=HTTP_GET_BYTES,
        response_bytes=page_bytes,
        pipeline_depth=PIPELINE_DEPTH,
        connections=CONNECTIONS_PER_CORE * testbed.config.num_cores,
        host_app_cost_ns=nginx_request_cost_ns,
    )
    return app.run(warmup_ns, measure_ns)
