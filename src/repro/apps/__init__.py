"""Application workloads: iperf, netperf RPC, Redis, Nginx, SPDK.

iperf returns the testbed's :class:`~repro.host.TestbedResult`; the
four request/response apps return one :class:`AppResult`, measured over
the same ``Testbed.run`` window.
"""

from .base import AppResult, AppStats, RequestResponseApp, segments_for
from .iperf import run_bidirectional_iperf, run_iperf
from .netperf import run_netperf_rpc
from .nginx import run_nginx
from .redis import run_redis
from .spdk import run_spdk

__all__ = [
    "RequestResponseApp",
    "AppStats",
    "AppResult",
    "segments_for",
    "run_iperf",
    "run_bidirectional_iperf",
    "run_netperf_rpc",
    "run_redis",
    "run_nginx",
    "run_spdk",
]
