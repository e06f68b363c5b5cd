"""The measured host: the full NIC-to-memory datapath of §2.1.

This class wires every substrate together and drives the paper's five
datapath steps:

1. descriptor preparation (protection driver: IOVA alloc + map);
2. packet arrival into the NIC input buffer (finite; tail drop) and
   page-slot consumption from the per-core ring;
3. DMA through the PCIe Rx pipeline with per-transaction address
   translation (IOTLB probe, PTcache-shortened walk on the shared
   walker — the begin callback runs at DMA start so concurrent Tx
   invalidations interleave faithfully);
4. descriptor retirement (unmap + invalidate per the protection mode)
   and replenishment, charged to the owning core;
5. NAPI-style polled delivery to the transport, with GRO-coalesced
   delayed ACKs, immediate duplicate ACKs on out-of-order arrivals,
   and the Tx (ACK/data) datapath back through the IOMMU.

Throughput, drop rates, cache miss rates, ACK rates and tail latencies
are all *outcomes* of this machinery, not inputs.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Callable, Optional

from ..context import current_context
from ..iommu import Iommu
from ..iommu.addr import PAGE_SIZE
from ..iommu.faultq import ABORT_LATENCY_NS
from ..mem.latency import DEFAULT_L0_NS
from ..mem.physmem import PhysicalMemory
from ..net.dctcp import DctcpReceiver, DctcpSender, RtoTimer
from ..net.packet import Packet, PacketKind
from ..nic import Nic, RecoveryManager
from ..nic.descriptor import RxDescriptor
from ..pcie import (
    MAX_PAYLOAD_BYTES,
    RX_LANES,
    TX_LANES,
    DmaPipeline,
    transactions,
)
from ..protection import (
    DeferredDriver,
    PassthroughDriver,
    ProtectionDriver,
    StrictFamilyDriver,
    TxMapping,
)
from ..sim import Simulator
from ..sim.rng import SeededRng
from .config import HostConfig
from .cpu import CoreSet

__all__ = ["Host", "data_touch_ns"]

# Allocator aging draws its shuffle from this seed (see HostConfig).
AGING_SEED = 42

# NAPI / interrupt coalescing (DIM-flavoured fixed settings): a poll
# runs IRQ_COALESCE_NS after the first queued packet, or at once when
# IRQ_COALESCE_FRAMES are queued; GRO coalesces in-order segments into
# one delayed ACK per GRO_MAX_BYTES.
IRQ_COALESCE_NS = 6_000.0
IRQ_COALESCE_FRAMES = 32
GRO_MAX_BYTES = 65536

# Per-core software costs (ns): protocol processing per MTU packet and
# the fixed NAPI poll + IRQ overhead amortized over the batch.
STACK_PER_PACKET_NS = 300.0
STACK_PER_POLL_NS = 3000.0
# Per-page data-copy cost, which grows with ring size as the buffer
# footprint defeats the hardware prefetchers (the paper's explanation
# for F&S's small CPU-bound gap at 2048-packet rings, §4.4); DDIO
# reduces it because payloads land in LLC.
DATA_TOUCH_BASE_NS = 260.0
DATA_TOUCH_RING_FACTOR = 0.55  # extra fraction per ring doubling
DDIO_TOUCH_DISCOUNT = 0.45


def data_touch_ns(ring_size_packets: int, enable_ddio: bool) -> float:
    """The per-page data-copy cost at this ring size and DDIO setting."""
    doublings = 0
    size = 256
    while size < ring_size_packets:
        size *= 2
        doublings += 1
    cost = DATA_TOUCH_BASE_NS * (1.0 + DATA_TOUCH_RING_FACTOR * doublings)
    if enable_ddio:
        cost *= 1.0 - DDIO_TOUCH_DISCOUNT
    return cost


class _FlowBinding:
    """Host-side state for one flow (either direction)."""

    __slots__ = ("flow_id", "core", "receiver", "sender", "rto")

    def __init__(self, flow_id: int, core: int):
        self.flow_id = flow_id
        self.core = core
        self.receiver: Optional[DctcpReceiver] = None
        self.sender: Optional[DctcpSender] = None
        self.rto: Optional[RtoTimer] = None


class Host:
    """The receiver-side server under measurement."""

    def __init__(
        self,
        sim: Simulator,
        config: HostConfig,
        wire_out: Callable[[Packet], None],
    ) -> None:
        self.sim = sim
        self.config = config
        self.wire_out = wire_out
        self.physmem = PhysicalMemory(total_frames=1 << 21)
        self.allocation_trace: list[tuple[int, int]] = []
        self.iommu: Optional[Iommu] = None
        self.driver = self._build_driver()
        self.nic = Nic(config.num_cores, sim=sim)
        # A fault-injected NIC stall parks packets in the input buffer;
        # the NIC wakes the DMA pump when the stall window closes.
        self.nic.on_wake = self._pump_rx_dma
        self.cores = CoreSet(sim, config.num_cores)
        self.rx_pipeline = DmaPipeline(sim, RX_LANES, label="rx")
        self.tx_pipeline = DmaPipeline(sim, TX_LANES, label="tx")
        self._flows: dict[int, _FlowBinding] = {}
        # Per-core NAPI state.
        self._napi_queues: list[deque[Packet]] = [
            deque() for _ in range(config.num_cores)
        ]
        self._poll_timer = [None] * config.num_cores
        self._poll_scheduled = [False] * config.num_cores
        self._poll_fns = [
            partial(self._poll, core) for core in range(config.num_cores)
        ]
        # Per-core completed-but-unretired Tx mappings.
        self._pending_tx: list[list[TxMapping]] = [
            [] for _ in range(config.num_cores)
        ]
        # Hard-fault path: packets whose DMA the IOMMU aborted.  The
        # begin callback flags the packet; the finish callback consumes
        # the flag and suppresses delivery (Rx) / wire-out (Tx).
        self._aborted_dmas: set[int] = set()
        self._aborted_tx: set[int] = set()
        self.rx_dma_aborts = 0
        self.tx_dma_aborts = 0
        # Memory-bandwidth utilization estimate for walker contention.
        self._util_window_start = 0.0
        self._util_bytes = 0
        self._mem_utilization = 0.0
        # Counters.
        self.rx_data_segments = 0
        self.rx_data_bytes = 0
        self.rx_data_pages = 0
        self.acks_sent = 0
        self.tx_data_segments = 0
        self.tx_data_bytes_sent = 0
        self.delivered_segments_by_flow: dict[int, int] = {}
        # App hook: called with (flow_id, segments) on in-order delivery.
        self.on_delivery: Optional[Callable[[int, int], None]] = None
        self.obs = current_context().registry
        if self.obs is not None:
            scope = self.obs.scope("host")
            scope.counter(
                "rx_data_segments", lambda: self.rx_data_segments
            )
            scope.counter("rx_data_bytes", lambda: self.rx_data_bytes)
            scope.counter("rx_data_pages", lambda: self.rx_data_pages)
            scope.counter("acks_sent", lambda: self.acks_sent)
            scope.counter(
                "tx_data_segments", lambda: self.tx_data_segments
            )
            scope.counter(
                "tx_data_bytes", lambda: self.tx_data_bytes_sent
            )
            scope.counter("rx_dma_aborts", lambda: self.rx_dma_aborts)
            scope.counter("tx_dma_aborts", lambda: self.tx_dma_aborts)
            scope.gauge(
                "mem_utilization", lambda: self._mem_utilization
            )
        if self.iommu is not None and self.iommu.fault_queue is not None:
            self.iommu.fault_queue.bind_clock(lambda: self.sim.now)
        self._age_allocator()
        self._fill_rings()
        # Hard-fault recovery: a housekeeping detector plus the reset
        # state machine.  Built last so its first counter snapshots see
        # the filled rings.
        self.recovery: Optional[RecoveryManager] = None
        if config.recovery:
            self.recovery = RecoveryManager(self)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build_driver(self) -> ProtectionDriver:
        config = self.config
        if config.mode == "off":
            return PassthroughDriver(self.physmem)
        self.iommu = Iommu(config.iommu)
        if config.mode == "deferred":
            return DeferredDriver(
                self.iommu,
                self.physmem,
                config.num_cores,
                allocation_trace=self.allocation_trace,
            )
        factory = {
            "strict": StrictFamilyDriver.linux_strict,
            "fns": StrictFamilyDriver.fns,
            "fns-huge": StrictFamilyDriver.fns_huge,
            "linux+A": StrictFamilyDriver.linux_plus_preserve,
            "linux+B": StrictFamilyDriver.linux_plus_contiguous,
        }[config.mode]
        return factory(
            self.iommu,
            self.physmem,
            config.num_cores,
            chunk_pages=config.descriptor_pages,
            allocation_trace=self.allocation_trace,
        )

    def _age_allocator(self) -> None:
        """Reproduce a long-uptime allocator state (see HostConfig).

        Allocates a burst of page-sized IOVAs across all cores, then
        frees them in shuffled order to random cores.  The magazines
        and depot end up holding addresses spanning a wide extent in a
        scrambled order, so subsequent ring replenishment draws
        scattered IOVAs — the poor-locality regime §2.2 measures.
        The end state is computed in closed form
        (:meth:`CachingIovaAllocator.age`) and leaves no entries in the
        allocation trace.
        """
        count = self.config.effective_aging_iovas
        allocator = getattr(self.driver, "allocator", None)
        if count <= 0 or allocator is None:
            return
        rng = SeededRng(AGING_SEED, "allocator-aging")
        allocator.age(count, rng)

    def _fill_rings(self) -> None:
        for core in range(self.config.num_cores):
            ring = self.nic.rings[core]
            for _ in range(self.config.descriptors_per_ring):
                descriptor, _cost = self.driver.make_rx_descriptor(
                    core, self.config.descriptor_pages
                )
                ring.post(descriptor)

    # ------------------------------------------------------------------
    # Flow registration
    # ------------------------------------------------------------------
    def register_rx_flow(self, flow_id: int, core: int) -> DctcpReceiver:
        """A flow whose data arrives at this host."""
        binding = self._flows.setdefault(flow_id, _FlowBinding(flow_id, core))
        binding.core = core
        binding.receiver = DctcpReceiver(flow_id)
        return binding.receiver

    def register_tx_flow(
        self,
        flow_id: int,
        core: int,
        unlimited: bool = True,
        segment_bytes: Optional[int] = None,
    ) -> DctcpSender:
        """A flow this host transmits (Fig 10 Tx iperf, app responses)."""
        binding = self._flows.setdefault(flow_id, _FlowBinding(flow_id, core))
        binding.core = core
        binding.sender = DctcpSender(
            flow_id,
            self.config.mtu_bytes,
            unlimited=unlimited,
            segment_bytes=segment_bytes,
        )
        binding.rto = RtoTimer(
            self.sim, binding.sender, partial(self.pump_tx_flow, flow_id)
        )
        return binding.sender

    # ------------------------------------------------------------------
    # Wire ingress (step 2-3)
    # ------------------------------------------------------------------
    def packet_from_wire(self, packet: Packet) -> None:
        """Every arriving packet — data or ACK — is DMA'd via a ring."""
        size = packet.size_bytes
        pages = -(-size // PAGE_SIZE) if size > PAGE_SIZE else 1
        flow_id = packet.flow_id
        binding = self._flows.get(flow_id)
        core = (
            binding.core
            if binding is not None
            else flow_id % self.config.num_cores
        )
        if not self.nic.offer(packet, self.nic.rings[core], pages):
            return
        pipeline = self.rx_pipeline
        if pipeline.inflight < pipeline.lanes:
            self._pump_rx_dma()

    def _pump_rx_dma(self) -> None:
        pipeline = self.rx_pipeline
        next_packet = self.nic.next_packet
        while pipeline.inflight < pipeline.lanes:
            job = next_packet()
            if job is None:
                return
            pipeline.submit(
                job[0].size_bytes,
                self._rx_dma_begin,
                self._rx_dma_finish,
                job,
            )

    def _rx_dma_begin(self, job: tuple, start: float) -> float:
        """Translate every PCIe transaction, then time the DMA.

        Each IOTLB miss is one page walk: reads within a walk are
        sequential, walks for different pages overlap on the IOMMU's
        walker channels.  The DMA completes when the wire transfer and
        the slowest walk (plus the per-DMA base latency l0) are done.
        """
        packet, _core, taken = job
        driver = self.driver
        walks_done = start
        remaining = packet.size_bytes
        for _descriptor, slot in taken:
            in_page = min(remaining, PAGE_SIZE)
            remaining -= in_page
            # All of this page's TLPs translate back to back with no
            # event in between: only the first can walk.
            reads = driver.translate_for_dma(
                slot.iova, "rx", transactions(in_page), MAX_PAYLOAD_BYTES
            )
            if reads is None:
                # Hard-fault path: the root complex killed the
                # transaction; no data lands, the fault is logged,
                # and the DMA completes early with abort latency.
                self._aborted_dmas.add(packet.packet_id)
                self.rx_dma_aborts += 1
                return start + ABORT_LATENCY_NS
            if reads:
                finish = self.iommu.reserve_walk(
                    start, reads, self._mem_utilization
                )
                if finish > walks_done:
                    walks_done = finish
        self._account_dma_bytes(packet.size_bytes)
        wire_done = self.rx_pipeline.reserve_wire(start, packet.size_bytes)
        return max(wire_done, walks_done + DEFAULT_L0_NS)

    def _rx_dma_finish(self, job: tuple) -> None:
        packet, core, taken = job
        aborted = packet.packet_id in self._aborted_dmas
        if aborted:
            self._aborted_dmas.discard(packet.packet_id)
        # The pages' writes have landed.  Only a descriptor that
        # completes here can make its ring's head complete, so the ring
        # is asked for completed descriptors only then.
        completed = False
        for descriptor, _slot in taken:
            if descriptor.dma_done():
                completed = True
        if packet.is_data and not aborted:
            self.rx_data_segments += 1
            self.rx_data_bytes += packet.size_bytes
            self.rx_data_pages += len(taken)
        if completed:
            for descriptor in self.nic.rings[core].pop_completed():
                self._schedule_descriptor_recycle(descriptor)
        if not aborted:
            # An aborted DMA wrote nothing: the packet is lost exactly
            # like a wire drop, and the transport's loss recovery (dup
            # ACKs / RTO) takes it from here.
            self._deliver_to_core(packet, core)
        pipeline = self.rx_pipeline
        if pipeline.inflight < pipeline.lanes:
            self._pump_rx_dma()

    # ------------------------------------------------------------------
    # Hard-fault recovery surface (driven by RecoveryManager)
    # ------------------------------------------------------------------
    def quiesce_datapath(self) -> None:
        """Stop the DMA engine and drop everything buffered in the NIC.

        The buffered Rx DMA jobs are dropped with the page slots they
        took; the slots are never returned, because the reset tears
        their descriptors off the rings.  DMAs already in flight on
        the PCIe pipelines complete on their own and are handled by
        the normal finish callbacks.
        """
        self.nic.quiesce()

    def outstanding_descriptors(self) -> list[RxDescriptor]:
        """Tear every posted descriptor off every ring (device reset)."""
        descriptors: list[RxDescriptor] = []
        for ring in self.nic.rings:
            descriptors.extend(ring.drain())
        return descriptors

    def rebuild_rings(self) -> None:
        """Map and post fresh descriptor rings after a reset."""
        self._fill_rings()

    # ------------------------------------------------------------------
    # Descriptor recycling (step 4)
    # ------------------------------------------------------------------
    def _schedule_descriptor_recycle(self, descriptor) -> None:
        core = descriptor.core

        def recycle():
            retire_cost = self.driver.retire_rx_descriptor(descriptor, core)
            new_descriptor, make_cost = self.driver.make_rx_descriptor(
                core, self.config.descriptor_pages
            )
            self.cores.run(
                core,
                retire_cost + make_cost,
                lambda: self.nic.rings[core].post(new_descriptor),
            )

        self.cores.run(core, 0.0, recycle)

    # ------------------------------------------------------------------
    # NAPI delivery (step 5)
    # ------------------------------------------------------------------
    def _deliver_to_core(self, packet: Packet, core: int) -> None:
        """Queue ``packet`` for NAPI on ``core`` (its flow's core)."""
        queue = self._napi_queues[core]
        queue.append(packet)
        if self._poll_scheduled[core]:
            timer = self._poll_timer[core]
            if (
                timer is not None
                and len(queue) >= IRQ_COALESCE_FRAMES
            ):
                timer.cancel()
                self._poll_timer[core] = None
                self.sim.schedule_after(0.0, self._poll_fns[core])
            return
        self._poll_scheduled[core] = True
        self._poll_timer[core] = self.sim.call_after(
            IRQ_COALESCE_NS, self._poll_fns[core]
        )

    def _poll(self, core: int) -> None:
        """One NAPI poll: batch-process everything queued for the core."""
        self._poll_timer[core] = None
        queue = self._napi_queues[core]
        batch = list(queue)
        queue.clear()
        if not batch:
            self._poll_scheduled[core] = False
            return
        config = self.config
        touch_ns = data_touch_ns(config.ring_size_packets, config.enable_ddio)
        cost = STACK_PER_POLL_NS
        for packet in batch:
            cost += STACK_PER_PACKET_NS
            if packet.is_data:
                cost += touch_ns * (packet.size_bytes / PAGE_SIZE)
        self.cores.run(core, cost, lambda: self._poll_done(core, batch))

    def _poll_done(self, core: int, batch: list[Packet]) -> None:
        gro_segments = max(1, GRO_MAX_BYTES // self.config.mtu_bytes)
        touched_receivers: dict[int, DctcpReceiver] = {}
        now = self.sim.now
        for packet in batch:
            binding = self._flows.get(packet.flow_id)
            if packet.kind == PacketKind.ACK:
                if binding is not None and binding.sender is not None:
                    binding.sender.on_ack(packet, now)
                    self.pump_tx_flow(packet.flow_id)
                continue
            if binding is None or binding.receiver is None:
                continue
            receiver = binding.receiver
            delivered, maybe_ack = receiver.on_data(
                packet, now, ack_every=gro_segments
            )
            if delivered:
                touched_receivers[packet.flow_id] = receiver
                self.delivered_segments_by_flow[packet.flow_id] = (
                    self.delivered_segments_by_flow.get(packet.flow_id, 0)
                    + delivered
                )
                if self.on_delivery is not None:
                    self.on_delivery(packet.flow_id, delivered)
            if maybe_ack is not None:
                self._send_ack(core, maybe_ack)
        # End of poll: flush the delayed (GRO) ACK of each flow that
        # made in-order progress.
        for flow_id, receiver in touched_receivers.items():
            trailing = receiver.flush_ack(now)
            if trailing is not None:
                self._send_ack(core, trailing)
        # Tx completion cleaning also happens in the poll context.
        self._maybe_retire_tx(core)
        # Another interrupt window begins.
        self._poll_scheduled[core] = False
        if self._napi_queues[core]:
            self._poll_scheduled[core] = True
            self._poll_timer[core] = self.sim.call_after(
                IRQ_COALESCE_NS, self._poll_fns[core]
            )

    # ------------------------------------------------------------------
    # Tx datapath: ACKs and data
    # ------------------------------------------------------------------
    def _send_ack(self, core: int, ack: Packet) -> None:
        mapping, cost = self.driver.map_tx_page(core)
        self.cores.charge(core, cost)
        self.acks_sent += 1
        self.tx_pipeline.submit(
            ack.size_bytes,
            self._tx_dma_begin,
            self._tx_dma_finish,
            (ack, [mapping], core, "tx_ack"),
        )

    def pump_tx_flow(self, flow_id: int) -> None:
        """Send whatever the flow's window allows."""
        binding = self._flows.get(flow_id)
        if binding is None or binding.rto is None:
            return
        rto = binding.rto
        for packet in rto.sender.take_packets(self.sim.now):
            self._send_tx_data(binding.core, packet)
        rto.arm()

    def _send_tx_data(self, core: int, packet: Packet) -> None:
        pages = max(1, -(-packet.size_bytes // PAGE_SIZE))
        mappings = []
        cost = 0.0
        for _ in range(pages):
            mapping, map_cost = self.driver.map_tx_page(core)
            mappings.append(mapping)
            cost += map_cost
        self.cores.charge(core, cost)
        self.tx_data_segments += 1
        self.tx_data_bytes_sent += packet.size_bytes
        self.tx_pipeline.submit(
            packet.size_bytes,
            self._tx_dma_begin,
            self._tx_dma_finish,
            (packet, mappings, core, "tx_data"),
        )

    def _tx_dma_begin(self, job: tuple, start: float) -> float:
        packet, mappings, _core, source = job
        driver = self.driver
        walks_done = start
        remaining = packet.size_bytes
        for mapping in mappings:
            in_page = min(remaining, PAGE_SIZE)
            remaining -= in_page
            reads = driver.translate_for_dma(
                mapping.iova, source, transactions(in_page), MAX_PAYLOAD_BYTES
            )
            if reads is None:
                self._aborted_tx.add(packet.packet_id)
                self.tx_dma_aborts += 1
                return start + ABORT_LATENCY_NS
            if reads:
                finish = self.iommu.reserve_walk(
                    start, reads, self._mem_utilization
                )
                if finish > walks_done:
                    walks_done = finish
        self._account_dma_bytes(packet.size_bytes)
        wire_done = self.tx_pipeline.reserve_wire(start, packet.size_bytes)
        return max(wire_done, walks_done + DEFAULT_L0_NS)

    def _tx_dma_finish(self, job: tuple) -> None:
        packet, mappings, core, _source = job
        if packet.packet_id in self._aborted_tx:
            # The device never read the payload; nothing reaches the
            # wire, but the mappings still retire through the normal
            # completion-cleaning path.
            self._aborted_tx.discard(packet.packet_id)
        else:
            self.wire_out(packet)
        self._pending_tx[core].extend(mappings)
        self._maybe_retire_tx(core)

    def _maybe_retire_tx(self, core: int) -> None:
        pending = self._pending_tx[core]
        if not pending:
            return
        batch = list(pending)
        pending.clear()
        cost = self.driver.retire_tx_pages(batch, core)
        self.cores.charge(core, cost)

    # ------------------------------------------------------------------
    # Memory-bandwidth utilization estimate
    # ------------------------------------------------------------------
    def _account_dma_bytes(self, size_bytes: int) -> None:
        self._util_bytes += size_bytes
        window = self.sim.now - self._util_window_start
        if window >= 100_000.0:  # re-estimate every 100 us
            bytes_per_ns = self._util_bytes / window
            # DDIO off: payloads cross the memory bus twice (DMA write
            # plus the CPU's read); on: once.
            factor = 1.0 if self.config.enable_ddio else 2.0
            self._mem_utilization = min(
                0.95,
                bytes_per_ns * factor / self.config.memory_bandwidth_gbps,
            )
            self._util_bytes = 0
            self._util_window_start = self.sim.now
