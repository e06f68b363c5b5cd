"""Unit tests for Rx descriptors and rings."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.host import HostConfig
from repro.host.server import Host
from repro.net import Packet, PacketKind
from repro.nic import Nic, PageSlot, RxDescriptor, RxRing
from repro.sim import Simulator


def make_descriptor(pages=4, core=0):
    slots = [PageSlot(iova=i * 4096, frame=i) for i in range(pages)]
    return RxDescriptor(slots=slots, core=core)


class TestDescriptor:
    def test_take_page_consumes_in_order(self):
        desc = make_descriptor(3)
        assert desc.take_run(1)[0].iova == 0
        assert desc.take_run(1)[0].iova == 4096
        assert desc.free_pages == 1
        assert desc.dma_pending == 2

    def test_take_run_stops_at_descriptor_end(self):
        desc = make_descriptor(3)
        desc.take_run(1)
        run = desc.take_run(5)
        assert [slot.iova for slot in run] == [4096, 8192]
        assert desc.is_exhausted
        assert desc.dma_pending == 3

    def test_exhausted_raises(self):
        desc = make_descriptor(1)
        desc.take_run(1)
        with pytest.raises(RuntimeError):
            desc.take_run(1)

    def test_complete_requires_dma_done(self):
        desc = make_descriptor(2)
        desc.take_run(2)
        assert desc.is_exhausted
        assert not desc.is_complete
        assert desc.dma_done() is False
        assert not desc.is_complete
        assert desc.dma_done() is True
        assert desc.is_complete

    def test_dma_done_before_exhaustion_is_not_complete(self):
        desc = make_descriptor(2)
        desc.take_run(1)
        assert desc.dma_done() is False
        assert not desc.is_complete

    def test_dma_done_overflow_raises(self):
        desc = make_descriptor(2)
        desc.take_run(1)
        with pytest.raises(RuntimeError):
            desc.dma_done(2)


class TestRing:
    def test_take_pages_spans_descriptors(self):
        ring = RxRing(core=0)
        ring.post(make_descriptor(2))
        ring.post(make_descriptor(2))
        taken = ring.take_pages(3)
        assert len(taken) == 3
        assert taken[0][0] is not taken[2][0]
        assert ring.free_pages == 1

    def test_take_too_many_raises(self):
        ring = RxRing(core=0)
        ring.post(make_descriptor(2))
        with pytest.raises(RuntimeError):
            ring.take_pages(3)

    def test_pop_completed_only_leading(self):
        ring = RxRing(core=0)
        first, second = make_descriptor(1), make_descriptor(1)
        ring.post(first)
        ring.post(second)
        taken = ring.take_pages(2)
        # Complete the second only: nothing pops (FIFO retirement).
        second.dma_done()
        assert ring.pop_completed() == []
        first.dma_done()
        popped = ring.pop_completed()
        assert popped == [first, second]
        assert ring.completed_descriptors == 2
        assert taken

    def test_takes_skip_spent_descriptors_in_order(self):
        # Takes, completions, an empty descriptor and a drain in one
        # sequence: every take still hands out the oldest free slots.
        ring = RxRing(core=0)
        descriptors = [make_descriptor(2, core=n) for n in range(3)]
        empty = make_descriptor(0)
        for descriptor in descriptors[:2] + [empty, descriptors[2]]:
            ring.post(descriptor)

        def take(count):
            return [(d.core, slot.iova) for d, slot in ring.take_pages(count)]

        assert take(1) == [(0, 0)]
        assert take(2) == [(0, 4096), (1, 0)]
        descriptors[0].dma_done(2)
        assert ring.pop_completed() == [descriptors[0]]
        assert take(2) == [(1, 4096), (2, 0)]
        descriptors[1].dma_done(2)
        assert ring.pop_completed() == [descriptors[1], empty]
        fresh = make_descriptor(2, core=3)
        ring.post(fresh)
        assert take(2) == [(2, 4096), (3, 0)]
        assert ring.free_pages == 1
        assert ring.drain() == [descriptors[2], fresh]
        ring.post(make_descriptor(1, core=4))
        assert take(1) == [(4, 0)]

    def test_head(self):
        ring = RxRing(core=0)
        assert ring.head() is None
        desc = make_descriptor(1)
        ring.post(desc)
        assert ring.head() is desc


class TestNic:
    """Rx admission: the host's wire ingress into the NIC's rings."""

    class FakePacket:
        def __init__(self, flow_id=0, size_bytes=4096):
            self.flow_id = flow_id
            self.size_bytes = size_bytes

    def make_host(self, **overrides):
        config = HostConfig.cascade_lake(mode="off", **overrides)
        return Host(Simulator(), config, lambda packet: None)

    def arrive(self, host, flow_id=0, count=1):
        for seq in range(count):
            host.packet_from_wire(
                Packet(flow_id, seq, 4096, PacketKind.DATA)
            )

    def test_offer_requires_ring_pages(self):
        host = self.make_host()
        ring = host.nic.rings[0]
        ring.take_pages(ring.free_pages)
        self.arrive(host)
        assert host.nic.stats.ring_drops == 1
        assert host.nic.stats.buffer_drops == 0

    def test_buffer_overflow_drops(self):
        host = self.make_host()
        host.nic.buffer_bytes = 8192  # two 4 KB packets
        lanes = host.rx_pipeline.lanes
        # The first ``lanes`` packets start their DMA at once, the next
        # two fill the buffer, and the last one is dropped.
        self.arrive(host, count=lanes + 3)
        stats = host.nic.stats
        assert stats.buffer_drops == 1
        assert stats.ring_drops == 0
        assert stats.drop_fraction == pytest.approx(1 / (lanes + 3))

    def test_quiesced_nic_counts_buffer_drops(self):
        host = self.make_host()
        ring = host.nic.rings[0]
        free = ring.free_pages
        host.nic.quiesce()
        self.arrive(host)
        assert host.nic.stats.buffer_drops == 1
        assert ring.free_pages == free  # no page slot reserved

    def test_flow_steering_is_stable(self):
        host = self.make_host(num_cores=4)
        host.register_rx_flow(1, core=3)
        before = [ring.free_pages for ring in host.nic.rings]
        self.arrive(host, flow_id=1)
        after = [ring.free_pages for ring in host.nic.rings]
        # The flow's bound core, not ``flow_id % cores`` (ring 1).
        assert [b - a for b, a in zip(before, after)] == [0, 0, 0, 1]

    def test_next_packet_fifo(self):
        nic = Nic(num_cores=1)
        ring = nic.rings[0]
        ring.post(make_descriptor(4))
        first = self.FakePacket(flow_id=0)
        second = self.FakePacket(flow_id=0, size_bytes=8192)
        assert nic.offer(first, ring, 1)
        assert nic.offer(second, ring, 2)
        packet, core, taken = nic.next_packet()
        assert (packet, core) == (first, 0)
        assert [slot.iova for _, slot in taken] == [0]
        packet, core, taken = nic.next_packet()
        assert (packet, core) == (second, 0)
        assert [slot.iova for _, slot in taken] == [4096, 8192]
        assert nic.next_packet() is None
        assert nic.stats.dma_packets == 2
        assert nic.stats.dma_bytes == 4096 + 8192


class TestNicBuffer:
    """The NIC input buffer: bounded FIFO of Rx DMA jobs, tail drop."""

    def make_nic(self, buffer_bytes, pages=64):
        nic = Nic(num_cores=1, buffer_bytes=buffer_bytes)
        nic.rings[0].post(make_descriptor(pages))
        return nic

    def offer(self, nic, size):
        return nic.offer(Packet(0, 0, size, PacketKind.DATA), nic.rings[0], 1)

    def test_enqueue_dequeue_order(self):
        nic = self.make_nic(buffer_bytes=100)
        a = Packet(0, 0, 10, PacketKind.DATA)
        b = Packet(0, 1, 20, PacketKind.DATA)
        assert nic.offer(a, nic.rings[0], 1)
        assert nic.offer(b, nic.rings[0], 1)
        assert nic.next_packet()[0] is a
        assert nic.next_packet()[0] is b
        assert nic.next_packet() is None
        assert nic.buffered_bytes == 0

    def test_admits_at_capacity_drops_above(self):
        nic = self.make_nic(buffer_bytes=25)
        assert self.offer(nic, 10)
        assert self.offer(nic, 15)
        assert nic.buffered_bytes == 25
        assert not self.offer(nic, 1)
        stats = nic.stats
        assert (stats.buffer_drops, stats.ring_drops) == (1, 0)
        # A dropped packet takes no page slot.
        assert nic.rings[0].free_pages == 62

    def test_ring_checked_before_buffer(self):
        nic = self.make_nic(buffer_bytes=10, pages=1)
        assert self.offer(nic, 10)
        # Both the ring and the buffer are full: a ring drop.
        assert not self.offer(nic, 10)
        stats = nic.stats
        assert (stats.buffer_drops, stats.ring_drops) == (0, 1)

    def test_buffered_bytes_count_bytes(self):
        nic = self.make_nic(buffer_bytes=100)
        self.offer(nic, 30)
        self.offer(nic, 40)
        assert nic.buffered_bytes == 70
        nic.next_packet()
        assert nic.buffered_bytes == 40

    def test_buffer_never_marks(self):
        # ECN marking is the switch's; the NIC buffer only drops.
        nic = self.make_nic(buffer_bytes=100)
        packet = Packet(0, 0, 99, PacketKind.DATA)
        assert nic.offer(packet, nic.rings[0], 1)
        assert not packet.ecn_marked

    def test_quiesce_drops_buffered_jobs(self):
        nic = self.make_nic(buffer_bytes=100)
        self.offer(nic, 30)
        nic.quiesce()
        assert nic.buffered_bytes == 0
        nic.resume()
        assert nic.next_packet() is None

    @pytest.mark.parametrize("capacity", [0, -1])
    def test_non_positive_capacity_rejected(self, capacity):
        with pytest.raises(ValueError):
            Nic(num_cores=1, buffer_bytes=capacity)


# One step of the NIC model: offer ``(size, pages)``, pop a job,
# quiesce, or resume.
nic_step = st.one_of(
    st.tuples(st.just("offer"), st.integers(1, 60), st.integers(1, 3)),
    st.just(("next",)),
    st.just(("quiesce",)),
    st.just(("resume",)),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(nic_step, max_size=60))
def test_nic_matches_list_model(steps):
    """``Nic.offer``/``next_packet`` against a plain list of jobs."""
    capacity, descriptors, per_descriptor = 100, 2, 3
    nic = Nic(num_cores=1, buffer_bytes=capacity)
    ring = nic.rings[0]
    slots = []
    for n in range(descriptors):
        descriptor = RxDescriptor(
            slots=[
                PageSlot(iova=(n * per_descriptor + i) * 4096, frame=i)
                for i in range(per_descriptor)
            ],
            core=0,
        )
        slots.extend(slot.iova for slot in descriptor.slots)
        ring.post(descriptor)
    jobs, next_slot, quiesced = [], 0, False
    arrived = buffer_drops = ring_drops = dma_packets = dma_bytes = 0
    for seq, step in enumerate(steps):
        if step[0] == "offer":
            _, size, pages = step
            packet = Packet(0, seq, size, PacketKind.DATA)
            arrived += 1
            buffered = sum(job[0].size_bytes for job in jobs)
            if quiesced:
                buffer_drops += 1
                admitted = False
            elif len(slots) - next_slot < pages:
                ring_drops += 1
                admitted = False
            elif buffered + size > capacity:
                buffer_drops += 1
                admitted = False
            else:
                jobs.append((packet, slots[next_slot:next_slot + pages]))
                next_slot += pages
                admitted = True
            assert nic.offer(packet, ring, pages) == admitted
        elif step[0] == "next":
            job = nic.next_packet()
            if quiesced or not jobs:
                assert job is None
            else:
                packet, iovas = jobs.pop(0)
                dma_packets += 1
                dma_bytes += packet.size_bytes
                assert job[:2] == (packet, 0)
                assert [slot.iova for _, slot in job[2]] == iovas
        elif step[0] == "quiesce":
            nic.quiesce()
            jobs, quiesced = [], True
        else:
            nic.resume()
            quiesced = False
        assert nic.buffered_bytes == sum(j[0].size_bytes for j in jobs)
        stats = nic.stats
        assert stats.arrived_packets == arrived
        assert (stats.buffer_drops, stats.ring_drops) == (
            buffer_drops, ring_drops
        )
        assert (stats.dma_packets, stats.dma_bytes) == (dma_packets, dma_bytes)
        assert ring.free_pages == len(slots) - next_slot
