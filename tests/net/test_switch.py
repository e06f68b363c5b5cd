"""Unit tests for the switch port model."""

from collections import deque
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import Packet, PacketKind, SwitchPort
from repro.sim import Simulator


def data_packet(seq=0, size=4096):
    return Packet(1, seq, size, PacketKind.DATA)


def test_delivery_includes_wire_and_propagation():
    sim = Simulator()
    arrivals = []
    port = SwitchPort(
        sim,
        rate_gbps=100.0,
        propagation_ns=2000.0,
        deliver=lambda p: arrivals.append((p.seq, sim.now)),
    )
    port.enqueue(data_packet(0))
    sim.run()
    # 4096 B at 100 Gbps = 327.68 ns wire + 2000 ns propagation.
    assert arrivals[0][1] == pytest.approx(2327.68)


def test_back_to_back_serialization():
    sim = Simulator()
    arrivals = []
    port = SwitchPort(
        sim, rate_gbps=100.0, propagation_ns=0.0,
        deliver=lambda p: arrivals.append(sim.now),
    )
    port.enqueue(data_packet(0))
    port.enqueue(data_packet(1))
    sim.run()
    assert arrivals[1] - arrivals[0] == pytest.approx(327.68)


def test_overflow_drops():
    sim = Simulator()
    port = SwitchPort(sim, buffer_bytes=8192, deliver=lambda p: None)
    accepted = sum(port.enqueue(data_packet(i)) for i in range(5))
    assert accepted < 5
    assert port.drops == 5 - accepted


def test_ecn_marking_above_threshold():
    sim = Simulator()
    port = SwitchPort(
        sim,
        buffer_bytes=1 << 20,
        ecn_threshold_bytes=8192,
        deliver=lambda p: None,
    )
    packets = [data_packet(i) for i in range(6)]
    for packet in packets:
        port.enqueue(packet)
    # Early packets unmarked, later ones marked once queue > 8 KB.
    assert not packets[0].ecn_marked
    assert packets[-1].ecn_marked


def test_acks_never_ecn_marked():
    sim = Simulator()
    port = SwitchPort(
        sim,
        buffer_bytes=1 << 20,
        ecn_threshold_bytes=1,
        deliver=lambda p: None,
    )
    port.enqueue(data_packet(0))
    ack = Packet(1, 0, 64, PacketKind.ACK)
    port.enqueue(ack)
    assert not ack.ecn_marked


def test_ordering_preserved():
    sim = Simulator()
    arrivals = []
    port = SwitchPort(sim, deliver=lambda p: arrivals.append(p.seq))
    for seq in range(10):
        port.enqueue(data_packet(seq))
    sim.run()
    assert arrivals == list(range(10))


def test_delivered_bytes_counter():
    sim = Simulator()
    port = SwitchPort(sim, deliver=lambda p: None)
    port.enqueue(data_packet(0, size=1000))
    sim.run()
    assert port.delivered_bytes == 1000


class TestPortQueue:
    """The egress queue the port keeps itself: tail drop and ECN.

    A packet whose serialization starts now has left the queue, so of
    packets offered at time 0 the first is gone by the second offer.
    """

    def port(self, sim, **overrides):
        return SwitchPort(sim, deliver=lambda p: None, **overrides)

    def test_admits_at_capacity_drops_above(self):
        sim = Simulator()
        port = self.port(sim, buffer_bytes=25)
        # The head leaves at once; the next two fill the queue to
        # exactly its 25 bytes, and one byte more is dropped.
        assert port.enqueue(data_packet(0, size=10))
        assert port.enqueue(data_packet(1, size=10))
        assert port.enqueue(data_packet(2, size=15))
        assert port.queue_bytes == 25
        assert not port.enqueue(data_packet(3, size=1))
        assert port.drops == 1
        assert port.queue_bytes == 25

    def test_occupancy_counts_bytes(self):
        sim = Simulator()
        port = self.port(sim, rate_gbps=8.0)  # 1 byte/ns
        port.enqueue(data_packet(0, size=30))
        port.enqueue(data_packet(1, size=40))
        port.enqueue(data_packet(2, size=50))
        assert port.queue_bytes == 90
        sim.run(until=30.0)  # packet 1 starts at 30 ns
        assert port.queue_bytes == 50
        assert port.delivered_bytes == 70

    def test_ecn_marks_strictly_above_threshold(self):
        sim = Simulator()
        port = self.port(sim, buffer_bytes=100, ecn_threshold_bytes=50)
        head, at, above = (data_packet(i, size=s) for i, s in
                           enumerate((10, 50, 1)))
        for packet in (head, at, above):
            port.enqueue(packet)
        assert not at.ecn_marked  # 50 is not above 50
        assert above.ecn_marked
        assert port.marked == 1

    def test_ecn_marks_data_only(self):
        sim = Simulator()
        port = self.port(sim, buffer_bytes=100, ecn_threshold_bytes=0)
        packets = [
            data_packet(0, size=10),
            Packet(1, 1, 10, PacketKind.ACK),
            Packet(1, 2, 10, PacketKind.RPC_REQ),
            Packet(1, 3, 10, PacketKind.RPC_RESP),
        ]
        for packet in packets:
            port.enqueue(packet)
        # Any occupancy is above a zero threshold; the ACK is spared.
        assert [p.ecn_marked for p in packets] == [True, False, True, True]

    @pytest.mark.parametrize("capacity", [0, -1])
    def test_non_positive_capacity_rejected(self, capacity):
        with pytest.raises(ValueError):
            SwitchPort(Simulator(), buffer_bytes=capacity)


# ----------------------------------------------------------------------
# Closed-form departures against the two-event port they replaced
# ----------------------------------------------------------------------
RATE_GBPS = 100.0  # 100 bits/ns: each 125-byte unit serializes in 10 ns
PROPAGATION_NS = 2000.0
BUFFER_BYTES = 6000
ECN_THRESHOLD_BYTES = 2500


class TwoEventPort:
    """The port as it was: an event per serialization end, one more
    per propagation, and the receiver's delay as a third."""

    def __init__(self, sim, deliver, receiver_delay_ns):
        self.sim = sim
        self.queue = deque()
        self.occupancy_bytes = 0
        self.deliver = deliver
        self.receiver_delay_ns = receiver_delay_ns
        self.next_free = 0.0
        self.delivered_bytes = 0
        self.draining = False

    def enqueue(self, packet):
        size = packet.size_bytes
        if self.occupancy_bytes + size > BUFFER_BYTES:
            return False
        self.queue.append(packet)
        self.occupancy_bytes += size
        if self.occupancy_bytes > ECN_THRESHOLD_BYTES and packet.is_data:
            packet.ecn_marked = True
        if not self.draining:
            self.drain_next()
        return True

    def drain_next(self):
        self.draining = bool(self.queue)
        if self.draining:
            packet = self.queue.popleft()
            size = packet.size_bytes
            self.occupancy_bytes -= size
            self.delivered_bytes += size
            start = max(self.sim.now, self.next_free)
            self.next_free = start + size * 8 / RATE_GBPS
            self.sim.schedule_at(self.next_free, partial(self.wire_done, packet))

    def wire_done(self, packet):
        self.sim.schedule_after(PROPAGATION_NS, partial(self.arrive, packet))
        self.drain_next()

    def arrive(self, packet):
        self.sim.schedule_after(
            self.receiver_delay_ns, partial(self.deliver, packet)
        )

    @property
    def queue_bytes(self):
        return self.occupancy_bytes


def replay(make_port, arrivals, probe_times):
    """Offer ``arrivals`` and read the port at ``probe_times``.

    Every offer and read hops once through the calendar at its own
    time, so it runs after each departure already due then: the tie
    rule, under which a packet whose serialization starts exactly now
    has left the queue.
    """
    sim = Simulator()
    delivered = []
    port = make_port(sim, lambda p: delivered.append((p.seq, sim.now)))
    admitted, reads, packets = [], [], []

    def offer(packet):
        admitted.append(port.enqueue(packet))

    def read():
        reads.append((sim.now, port.delivered_bytes, port.queue_bytes))

    for seq, (time, size, is_data) in enumerate(arrivals):
        kind = PacketKind.DATA if is_data else PacketKind.ACK
        packet = Packet(1, seq, size, kind)
        packets.append(packet)
        sim.schedule_at(time, partial(sim.schedule_at, time, partial(offer, packet)))
    for time in probe_times:
        sim.schedule_at(time, partial(sim.schedule_at, time, read))
    sim.run()
    read()
    marked = [packet.ecn_marked for packet in packets]
    return delivered, admitted, marked, reads


def arrival_times(gaps):
    time, times = 0.0, []
    for gap in gaps:
        time += gap
        times.append(time)
    return times


# Gaps on the 10 ns grid land arrivals exactly on serialization ends;
# the off-grid ones fall between them.
gap = st.one_of(
    st.integers(0, 30).map(lambda units: units * 10.0),
    st.floats(0.0, 300.0, allow_nan=False),
)
arrival = st.tuples(gap, st.integers(1, 12).map(lambda units: units * 125),
                    st.booleans())


@settings(max_examples=150, deadline=None)
@given(
    st.lists(arrival, min_size=1, max_size=40),
    st.lists(st.floats(0.0, 4000.0, allow_nan=False), max_size=10),
    st.sampled_from([0.0, 2000.0]),
)
def test_closed_form_port_matches_two_event_port(
    draws, probe_times, receiver_delay_ns
):
    times = arrival_times(gap for gap, _, _ in draws)
    arrivals = [
        (time, size, is_data)
        for time, (_, size, is_data) in zip(times, draws)
    ]
    probe_times = probe_times + times

    def closed_form(sim, deliver):
        return SwitchPort(
            sim,
            rate_gbps=RATE_GBPS,
            buffer_bytes=BUFFER_BYTES,
            ecn_threshold_bytes=ECN_THRESHOLD_BYTES,
            propagation_ns=PROPAGATION_NS,
            deliver=deliver,
            receiver_delay_ns=receiver_delay_ns,
        )

    def two_event(sim, deliver):
        return TwoEventPort(sim, deliver, receiver_delay_ns)

    assert replay(closed_form, arrivals, probe_times) == replay(
        two_event, arrivals, probe_times
    )


def test_arrival_at_a_departure_sees_the_departed_packet_gone():
    # Three 10 ns packets at t=0: the first goes straight to the wire,
    # the second starts at exactly t=10, when a fourth arrives.  The
    # second has left the queue by then, so the fourth sees 250 B
    # queued, not 375 B, and stays under the 250 B ECN threshold.
    sim = Simulator()
    port = SwitchPort(
        sim, rate_gbps=RATE_GBPS, ecn_threshold_bytes=250,
        deliver=lambda p: None,
    )
    packets = [data_packet(seq, size=125) for seq in range(4)]
    for packet in packets[:3]:
        port.enqueue(packet)
    sim.schedule_at(10.0, partial(port.enqueue, packets[3]))
    sim.run(until=10.0)
    assert not any(packet.ecn_marked for packet in packets)
    assert port.delivered_bytes == 250
    assert port.queue_bytes == 250
