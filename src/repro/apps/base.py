"""Request/response application engine.

All four applications the paper evaluates above raw iperf — netperf RPC
(Fig 9), Redis SET (Fig 11a), Nginx/wrk (Fig 11b) and SPDK remote reads
(Fig 11c) — are request/response exchanges over TCP that differ only in
who initiates, message sizes, pipelining depth, and application CPU
cost.  This engine models that shape over a :class:`Testbed`:

* ``initiator="remote"`` (netperf, Redis): the peer keeps
  ``pipeline_depth`` requests in flight on the request flow (bulk for
  Redis SETs); the measured host's application replies on the response
  flow after its per-request CPU cost.  Latency is recorded at the
  remote from request issue to full response delivery — the netperf RR
  measurement.

* ``initiator="host"`` (Nginx client, SPDK client): the measured host
  keeps ``pipeline_depth`` small requests outstanding; the peer
  responds with bulk data (web pages / storage blocks) that arrives
  through the measured host's Rx datapath — whose memory protection
  cost is exactly what Fig 11 studies.

What the IOMMU sees — the Rx/Tx DMA pattern, the reply-per-request Tx
traffic that inflates IOTLB contention at small value sizes (§4.4) —
emerges from the exchange structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional

from ..analysis.metrics import PERCENTILES_FIG9, LatencyRecorder
from ..host.config import HostConfig
from ..host.testbed import Testbed

__all__ = [
    "RequestResponseApp",
    "AppStats",
    "AppResult",
    "segments_for",
    "paper_app_testbed",
]

_APP_FLOW_BASE = 4000


def segments_for(message_bytes: int, mtu_bytes: int) -> tuple[int, int]:
    """(segment_count, segment_bytes) for a message over an MTU."""
    if message_bytes <= 0:
        raise ValueError("message must be non-empty")
    if message_bytes <= mtu_bytes:
        return 1, message_bytes
    count = -(-message_bytes // mtu_bytes)
    return count, mtu_bytes


# The §4.2 setup of Redis, Nginx and SPDK: 8 cores, 9 K MTU, and an
# allocator aged with 98,304 IOVAs.
APP_CORES = 8
APP_MTU_BYTES = 9000
APP_AGING_IOVAS = 98304


def paper_app_testbed(mode: str) -> Testbed:
    """A testbed in the paper's §4.2 application setup."""
    return Testbed(
        HostConfig.cascade_lake(
            mode=mode,
            num_cores=APP_CORES,
            mtu_bytes=APP_MTU_BYTES,
            allocator_aging_iovas=APP_AGING_IOVAS,
        )
    )


@dataclass
class AppStats:
    """Counters the testbed's measurement window reads."""

    requests_completed: int = 0
    bulk_bytes_delivered: int = 0


@dataclass
class AppResult:
    """One app cell: the app's counters over the testbed's window.

    ``goodput_gbps`` counts the app's bulk bytes (Redis values, web
    pages, storage blocks, RPC requests); ``background_gbps`` is the
    window's goodput of the testbed's iperf flows (Fig 9's colocated
    load; 0 without them).  The latency fields are filled only for an
    app that records latency (netperf RPC).
    """

    mode: str
    goodput_gbps: float
    requests_per_second: float
    iotlb_misses_per_page: float
    ptcache_l3_misses_per_page: float
    background_gbps: float
    rpc_count: int = 0
    percentiles_ns: dict = field(default_factory=dict)
    mean_ns: float = 0.0


class _Connection:
    __slots__ = (
        "core",
        "to_host_flow",
        "to_remote_flow",
        "host_rx_pending",
        "remote_rx_pending",
        "inflight_starts",
    )

    def __init__(self, core: int, to_host_flow: int, to_remote_flow: int):
        self.core = core
        self.to_host_flow = to_host_flow
        self.to_remote_flow = to_remote_flow
        self.host_rx_pending = 0  # segments until current message done
        self.remote_rx_pending = 0
        self.inflight_starts: list[float] = []


class RequestResponseApp:
    """Drives one app workload over a testbed (one app per testbed)."""

    def __init__(
        self,
        testbed: Testbed,
        initiator: str,
        request_bytes: int,
        response_bytes: int,
        pipeline_depth: int = 1,
        connections: int = 1,
        cores: Optional[list[int]] = None,
        host_app_cost_ns: Callable[[int], float] = lambda message_bytes: 0.0,
        record_latency: bool = False,
    ) -> None:
        if initiator not in ("remote", "host"):
            raise ValueError("initiator must be 'remote' or 'host'")
        if testbed.app is not None:
            raise RuntimeError("testbed already has an app attached")
        testbed.app = self
        self.testbed = testbed
        self.initiator = initiator
        self.pipeline_depth = pipeline_depth
        self.host_app_cost_ns = host_app_cost_ns
        self.stats = AppStats()
        self._window_start = AppStats()
        self.latency = LatencyRecorder() if record_latency else None
        mtu = testbed.config.mtu_bytes
        if initiator == "remote":
            # Bulk request toward the host; small response back.
            self.to_host_segments, to_host_seg_bytes = segments_for(
                request_bytes, mtu
            )
            self.to_remote_segments, to_remote_seg_bytes = segments_for(
                response_bytes, mtu
            )
            self.bulk_bytes = request_bytes
        else:
            # Small request from the host; bulk response back to it.
            self.to_remote_segments, to_remote_seg_bytes = segments_for(
                request_bytes, mtu
            )
            self.to_host_segments, to_host_seg_bytes = segments_for(
                response_bytes, mtu
            )
            self.bulk_bytes = response_bytes
        host = testbed.host
        remote = testbed.remote
        self.connections: list[_Connection] = []
        self._by_to_host_flow: dict[int, _Connection] = {}
        self._by_to_remote_flow: dict[int, _Connection] = {}
        num_cores = testbed.config.num_cores
        for index in range(connections):
            core = (
                cores[index % len(cores)]
                if cores
                else index % num_cores
            )
            to_host_flow = _APP_FLOW_BASE + 2 * index
            to_remote_flow = _APP_FLOW_BASE + 2 * index + 1
            host.register_rx_flow(to_host_flow, core)
            remote.register_sender(
                to_host_flow, unlimited=False, segment_bytes=to_host_seg_bytes
            )
            host.register_tx_flow(
                to_remote_flow,
                core,
                unlimited=False,
                segment_bytes=to_remote_seg_bytes,
            )
            remote.register_receiver(to_remote_flow)
            connection = _Connection(core, to_host_flow, to_remote_flow)
            connection.host_rx_pending = self.to_host_segments
            connection.remote_rx_pending = self.to_remote_segments
            self.connections.append(connection)
            self._by_to_host_flow[to_host_flow] = connection
            self._by_to_remote_flow[to_remote_flow] = connection
        host.on_delivery = self._on_host_delivery
        remote.on_delivery = self._on_remote_delivery
        # Kick off the pipeline once the simulation starts.
        testbed.sim.schedule_after(0.0, self._start)

    # ------------------------------------------------------------------
    # Measurement
    # ------------------------------------------------------------------
    def run(self, warmup_ns: float, measure_ns: float) -> AppResult:
        """Warm up and measure through the testbed's one window."""
        window = self.testbed.run(warmup_ns=warmup_ns, measure_ns=measure_ns)
        requests = (
            self.stats.requests_completed
            - self._window_start.requests_completed
        )
        goodput_bytes = (
            self.stats.bulk_bytes_delivered
            - self._window_start.bulk_bytes_delivered
        )
        result = AppResult(
            mode=window.mode,
            goodput_gbps=goodput_bytes * 8 / measure_ns,
            requests_per_second=requests / (measure_ns / 1e9),
            iotlb_misses_per_page=window.iotlb_misses_per_page,
            ptcache_l3_misses_per_page=window.ptcache_l3_misses_per_page,
            background_gbps=window.rx_goodput_gbps,
        )
        if self.latency is not None and len(self.latency):
            result.rpc_count = len(self.latency)
            result.percentiles_ns = self.latency.percentiles(PERCENTILES_FIG9)
            result.mean_ns = self.latency.mean
        return result

    def open_window(self) -> None:
        """Start counting at the window's open (called by ``Testbed.run``)."""
        self._window_start = replace(self.stats)
        if self.latency is not None:
            self.latency.samples.clear()

    # ------------------------------------------------------------------
    # Startup
    # ------------------------------------------------------------------
    def _start(self) -> None:
        for connection in self.connections:
            for _ in range(self.pipeline_depth):
                self._issue_request(connection)

    def _issue_request(self, connection: _Connection) -> None:
        now = self.testbed.sim.now
        connection.inflight_starts.append(now)
        if self.initiator == "remote":
            sender = self.testbed.remote.sender(connection.to_host_flow)
            sender.enqueue_segments(self.to_host_segments)
            self.testbed.remote.pump(connection.to_host_flow)
        else:
            host = self.testbed.host
            binding_sender = host._flows[connection.to_remote_flow].sender
            binding_sender.enqueue_segments(self.to_remote_segments)
            host.pump_tx_flow(connection.to_remote_flow)

    # ------------------------------------------------------------------
    # Host-side deliveries (data arriving at the measured host)
    # ------------------------------------------------------------------
    def _on_host_delivery(self, flow_id: int, segments: int) -> None:
        connection = self._by_to_host_flow.get(flow_id)
        if connection is None:
            return
        remaining = segments
        while remaining > 0:
            take = min(remaining, connection.host_rx_pending)
            connection.host_rx_pending -= take
            remaining -= take
            if connection.host_rx_pending == 0:
                connection.host_rx_pending = self.to_host_segments
                self._host_message_complete(connection)

    def _host_message_complete(self, connection: _Connection) -> None:
        host = self.testbed.host
        cost = self.host_app_cost_ns(self.bulk_bytes)
        if self.initiator == "remote":
            # A full request arrived: the app processes it, then sends
            # the response through the Tx datapath.
            self.stats.bulk_bytes_delivered += self.bulk_bytes

            def respond(conn=connection):
                sender = host._flows[conn.to_remote_flow].sender
                sender.enqueue_segments(self.to_remote_segments)
                host.pump_tx_flow(conn.to_remote_flow)

            host.cores.run(connection.core, cost, respond)
        else:
            # A full response arrived: count it and issue the next
            # request after the app's processing cost.
            self.stats.bulk_bytes_delivered += self.bulk_bytes
            self._complete_request(connection)
            host.cores.run(
                connection.core,
                cost,
                lambda conn=connection: self._issue_request(conn),
            )

    # ------------------------------------------------------------------
    # Remote-side deliveries
    # ------------------------------------------------------------------
    def _on_remote_delivery(self, flow_id: int, segments: int) -> None:
        connection = self._by_to_remote_flow.get(flow_id)
        if connection is None:
            return
        remaining = segments
        while remaining > 0:
            take = min(remaining, connection.remote_rx_pending)
            connection.remote_rx_pending -= take
            remaining -= take
            if connection.remote_rx_pending == 0:
                connection.remote_rx_pending = self.to_remote_segments
                self._remote_message_complete(connection)

    def _remote_message_complete(self, connection: _Connection) -> None:
        if self.initiator == "remote":
            # The response to one of our requests: transaction done.
            self._complete_request(connection)
            self._issue_request(connection)
        else:
            # The host's request arrived: respond with bulk data.
            sender = self.testbed.remote.sender(connection.to_host_flow)
            sender.enqueue_segments(self.to_host_segments)
            self.testbed.remote.pump(connection.to_host_flow)

    # ------------------------------------------------------------------
    def _complete_request(self, connection: _Connection) -> None:
        self.stats.requests_completed += 1
        if connection.inflight_starts:
            start = connection.inflight_starts.pop(0)
            if self.latency is not None:
                self.latency.record(self.testbed.sim.now - start)
