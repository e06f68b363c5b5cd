"""The two-server testbed: measured host + ideal peer + switch.

This mirrors the paper's measurement setup (§2.2): two servers
connected through one switch so that all bottlenecks are at the host.
The testbed owns flow setup, warm-up handling, and the snapshot/delta
measurement of every quantity the paper's figures plot: ``Testbed.run``
is the one measurement window, for iperf flows and for the
request/response app attached to the testbed alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from ..analysis.locality import LocalitySummary
from ..context import current_context
from ..net.switch import SwitchPort
from ..sim import Simulator, Watchdog
from .config import HostConfig
from .remote import PROCESSING_DELAY_NS, RemotePeer
from .server import Host

if TYPE_CHECKING:  # pragma: no cover
    from ..apps.base import RequestResponseApp

__all__ = ["Testbed", "TestbedResult"]

# Flow-id ranges by role (documentation of convention, not enforcement).
RX_FLOW_BASE = 0
TX_FLOW_BASE = 1000

# The switch between the two servers: one 100 Gbps port per direction.
LINK_GBPS = 100.0
SWITCH_BUFFER_BYTES = 2 << 20
PROPAGATION_NS = 2_000.0
# DCTCP marking thresholds (K).  The two directions see different
# bottlenecks.  Toward the measured host, the real bottleneck is inside
# the host (PCIe / NIC buffer, no ECN there), so the switch queue only
# absorbs sender bursts and gets a high threshold to avoid spurious
# marks.  Toward the peer, the switch egress itself is the bottleneck
# for host-Tx traffic and gets a standard DCTCP K.
ECN_THRESHOLD_TO_HOST_BYTES = 600_000
ECN_THRESHOLD_TO_PEER_BYTES = 150_000


@dataclass
class TestbedResult:
    """Everything measured over the post-warmup interval."""

    mode: str
    elapsed_ns: float
    # Application-level (in-order delivered) throughput.
    rx_goodput_gbps: float
    tx_goodput_gbps: float
    # Host drop behaviour.
    drop_fraction: float
    drops: int
    arrived_packets: int
    # Per-page IOMMU cache behaviour (None when IOMMU is off).
    iotlb_misses_per_page: float = 0.0
    ptcache_l1_misses_per_page: float = 0.0
    ptcache_l2_misses_per_page: float = 0.0
    ptcache_l3_misses_per_page: float = 0.0
    memory_reads_per_page: float = 0.0
    # Tx interference (Fig 2c crosses): host Tx packets per Rx page.
    tx_packets_per_page: float = 0.0
    # CPU.
    max_core_utilization: float = 0.0
    # The window's IOVA locality (Fig 2e/7e); set by ``run_iperf``,
    # the one caller whose rows plot it.
    locality: Optional[LocalitySummary] = None
    # Safety accounting.
    stale_translations: int = 0
    invalidation_requests: int = 0
    rx_data_pages: int = 0
    extras: dict = field(default_factory=dict)


class Testbed:
    """Builds and runs one experiment configuration."""

    # Not a pytest test class despite the name.
    __test__ = False

    def __init__(
        self,
        config: HostConfig,
        watchdog_interval_ns: Optional[float] = None,
    ) -> None:
        self.sim = Simulator()
        context = current_context()
        # Fault runtime (repro.faults); None in normal runs.  Kept so
        # the result reports the faults this testbed's injectors fired
        # wherever it runs.
        self.faults = context.faults
        if self.faults is not None:
            # Fault windows are expressed on the simulated clock; bind
            # it before any injection site is constructed.
            self.faults.bind_clock(self.sim)
        obs = context.registry
        if obs is not None:
            # Bind the tracer clock and start the phase sampler before
            # the subsystems below register their metrics.
            obs.attach_simulator(self.sim)
        self.config = config
        self.port_to_host = SwitchPort(
            self.sim,
            rate_gbps=LINK_GBPS,
            buffer_bytes=SWITCH_BUFFER_BYTES,
            ecn_threshold_bytes=ECN_THRESHOLD_TO_HOST_BYTES,
            propagation_ns=PROPAGATION_NS,
            label="to_host",
        )
        self.port_to_remote = SwitchPort(
            self.sim,
            rate_gbps=LINK_GBPS,
            buffer_bytes=SWITCH_BUFFER_BYTES,
            ecn_threshold_bytes=ECN_THRESHOLD_TO_PEER_BYTES,
            propagation_ns=PROPAGATION_NS,
            # The peer's processing delay rides on the arrival event.
            receiver_delay_ns=PROCESSING_DELAY_NS,
            label="to_peer",
        )
        self.host = Host(
            self.sim, config, wire_out=self.port_to_remote.enqueue
        )
        self.remote = RemotePeer(
            self.sim, config.mtu_bytes, wire_out=self.port_to_host.enqueue
        )
        self.port_to_host.deliver = self.host.packet_from_wire
        self.port_to_remote.deliver = self.remote.packet_from_wire
        self.rx_flow_ids: list[int] = []
        self.tx_flow_ids: list[int] = []
        # The request/response app driving this testbed, if any; run()
        # opens its measurement window together with the testbed's.
        self.app: Optional[RequestResponseApp] = None
        self.watchdog: Optional[Watchdog] = None
        if watchdog_interval_ns is not None:
            self.watchdog = Watchdog(
                self.sim, watchdog_interval_ns, self._progress
            )

    # ------------------------------------------------------------------
    # Flow setup
    # ------------------------------------------------------------------
    def add_rx_flows(
        self, count: int, cores: Optional[list[int]] = None
    ) -> list[int]:
        """iperf-style flows from the peer into the measured host."""
        flow_ids = []
        for index in range(count):
            flow_id = RX_FLOW_BASE + len(self.rx_flow_ids)
            core = (
                cores[index % len(cores)]
                if cores
                else flow_id % self.config.num_cores
            )
            self.host.register_rx_flow(flow_id, core)
            self.remote.register_sender(flow_id, unlimited=True)
            self.rx_flow_ids.append(flow_id)
            flow_ids.append(flow_id)
        return flow_ids

    def add_tx_flows(
        self, count: int, cores: Optional[list[int]] = None
    ) -> list[int]:
        """iperf-style flows from the measured host to the peer."""
        flow_ids = []
        for index in range(count):
            flow_id = TX_FLOW_BASE + len(self.tx_flow_ids)
            core = (
                cores[index % len(cores)]
                if cores
                else flow_id % self.config.num_cores
            )
            self.host.register_tx_flow(flow_id, core, unlimited=True)
            self.remote.register_receiver(flow_id)
            self.tx_flow_ids.append(flow_id)
            flow_ids.append(flow_id)
        return flow_ids

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self,
        warmup_ns: float = 5_000_000.0,
        measure_ns: float = 20_000_000.0,
        strict_until: bool = False,
    ) -> TestbedResult:
        """Warm up, measure, and return the interval's deltas.

        ``strict_until=True`` raises
        :class:`~repro.sim.EarlyQuiescenceError` if the calendar drains
        before the run's horizon — experiments use it so a dead
        workload cannot masquerade as a zero-throughput measurement.
        """
        self.remote.start_all()
        for flow_id in self.tx_flow_ids:
            self.host.pump_tx_flow(flow_id)
        if self.watchdog is not None:
            self.watchdog.arm()
        self.sim.run(until=warmup_ns, strict_until=strict_until)
        snapshot = self._snapshot()
        if self.app is not None:
            self.app.open_window()
        self.sim.run(
            until=warmup_ns + measure_ns, strict_until=strict_until
        )
        return self._result(snapshot, measure_ns)

    def _progress(self) -> tuple:
        """Watchdog progress sample: anything moving counts as alive."""
        host = self.host
        return (
            host.nic.stats.arrived_packets,
            host.nic.stats.dma_packets,
            host.acks_sent,
            host.tx_data_segments,
            sum(host.delivered_segments_by_flow.values()),
        )

    # ------------------------------------------------------------------
    def _snapshot(self) -> dict:
        host = self.host
        snap = {
            "delivered_by_flow": dict(host.delivered_segments_by_flow),
            "remote_delivered": dict(
                self.remote.delivered_segments_by_flow
            ),
            "rx_data_pages": host.rx_data_pages,
            "acks_sent": host.acks_sent,
            "tx_data_segments": host.tx_data_segments,
            "arrived": host.nic.stats.arrived_packets,
            "drops": host.nic.stats.total_drops,
            "busy_ns": list(host.cores.busy_ns),
        }
        # The allocation trace from here on is the window's alone.
        host.allocation_trace.clear()
        if host.iommu is not None:
            snap["iommu"] = self._iommu_counters()
        return snap

    def _iommu_counters(self) -> tuple:
        """The IOMMU counters the window reads: the ones divided by
        pages, then the invalidation requests."""
        stats = self.host.iommu.stats
        misses = stats.ptcache_counted_misses
        return (
            stats.iotlb_misses,
            misses[1],
            misses[2],
            misses[3],
            stats.memory_reads,
            stats.invalidation_requests,
        )

    def _result(self, snap: dict, measure_ns: float) -> TestbedResult:
        host = self.host
        rx_segments = sum(
            count - snap["delivered_by_flow"].get(flow_id, 0)
            for flow_id, count in host.delivered_segments_by_flow.items()
            if flow_id in self.rx_flow_ids
        )
        tx_segments = sum(
            count - snap["remote_delivered"].get(flow_id, 0)
            for flow_id, count in self.remote.delivered_segments_by_flow.items()
            if flow_id in self.tx_flow_ids
        )
        mtu_bits = self.config.mtu_bytes * 8
        rx_gbps = rx_segments * mtu_bits / measure_ns
        tx_gbps = tx_segments * mtu_bits / measure_ns
        arrived = host.nic.stats.arrived_packets - snap["arrived"]
        drops = host.nic.stats.total_drops - snap["drops"]
        pages = host.rx_data_pages - snap["rx_data_pages"]
        acks = host.acks_sent - snap["acks_sent"]
        tx_data = host.tx_data_segments - snap["tx_data_segments"]
        result = TestbedResult(
            mode=self.config.mode,
            elapsed_ns=measure_ns,
            rx_goodput_gbps=rx_gbps,
            tx_goodput_gbps=tx_gbps,
            drop_fraction=(drops / arrived) if arrived else 0.0,
            drops=drops,
            arrived_packets=arrived,
            tx_packets_per_page=((acks + tx_data) / pages) if pages else 0.0,
            max_core_utilization=max(
                (busy - before) / measure_ns
                for busy, before in zip(host.cores.busy_ns, snap["busy_ns"])
            ),
            rx_data_pages=pages,
        )
        if host.iommu is not None and pages > 0:
            iotlb, l1, l2, l3, reads, invalidations = (
                now - before
                for now, before in zip(self._iommu_counters(), snap["iommu"])
            )
            result.iotlb_misses_per_page = iotlb / pages
            result.ptcache_l1_misses_per_page = l1 / pages
            result.ptcache_l2_misses_per_page = l2 / pages
            result.ptcache_l3_misses_per_page = l3 / pages
            result.memory_reads_per_page = reads / pages
            result.invalidation_requests = invalidations
        if host.iommu is not None:
            result.stale_translations = host.iommu.stale_translations
        # Hardening / fault accounting (cumulative, not interval
        # deltas: fault sweeps run one testbed per plan).
        result.extras["invalidation_retries"] = (
            host.driver.invalidation_retries
        )
        result.extras["degraded_flushes"] = host.driver.degraded_flushes
        if host.iommu is not None:
            queue = host.iommu.invalidation_queue
            result.extras["dropped_completions"] = (
                queue.dropped_completions
            )
            result.extras["partial_completions"] = (
                queue.partial_completions
            )
            result.extras["invq_rearms"] = queue.rearms
            fault_queue = host.iommu.fault_queue
            if fault_queue is not None:
                result.extras["faults_reported"] = fault_queue.reported
                result.extras["faults_overflowed"] = (
                    fault_queue.overflowed
                )
        result.extras["rx_dma_aborts"] = host.rx_dma_aborts
        result.extras["tx_dma_aborts"] = host.tx_dma_aborts
        if host.recovery is not None:
            result.extras["recoveries"] = host.recovery.recoveries
            result.extras["mttr_max_ns"] = host.recovery.mttr_max_ns
            result.extras["mttr_last_ns"] = host.recovery.mttr_last_ns
        if self.faults is not None:
            result.extras["injected_faults"] = self.faults.injected_faults
            result.extras["unrecovered_wedges"] = (
                self.faults.unrecovered_wedges()
            )
        return result
