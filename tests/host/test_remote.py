"""Unit tests for the ideal remote peer."""

from repro.host import HostConfig, RemotePeer, Testbed
from repro.host.remote import PROCESSING_DELAY_NS
from repro.host.testbed import LINK_GBPS
from repro.net import Packet, PacketKind
from repro.net.dctcp import RTO_NS
from repro.sim import Simulator


def make_peer(sim=None):
    sim = sim or Simulator()
    sent = []
    peer = RemotePeer(sim, 4096, wire_out=sent.append)
    return sim, peer, sent


def test_sender_pumps_initial_window():
    sim, peer, sent = make_peer()
    peer.register_sender(1)
    peer.pump(1)
    assert len(sent) == 10  # init_cwnd
    assert all(p.kind == PacketKind.DATA for p in sent)


def test_ack_opens_more_window():
    sim, peer, sent = make_peer()
    peer.register_sender(1)
    peer.pump(1)
    sent.clear()
    ack = Packet(1, 5, 64, PacketKind.ACK)
    peer.packet_from_wire(ack)
    # Bounded run: the sender's RTO timer re-arms forever without acks.
    sim.run(until=100_000.0)
    assert len(sent) >= 5


def test_receiver_acks_delivered_data():
    sim, peer, sent = make_peer()
    peer.register_receiver(7)
    for seq in range(2):
        peer.packet_from_wire(Packet(7, seq, 4096, PacketKind.DATA))
    sim.run(until=100_000.0)
    acks = [p for p in sent if p.kind == PacketKind.ACK]
    assert acks and acks[-1].seq == 2


def test_delivery_callback_fires():
    sim, peer, sent = make_peer()
    peer.register_receiver(7)
    delivered = []
    peer.on_delivery = lambda flow, segs: delivered.append((flow, segs))
    peer.packet_from_wire(Packet(7, 0, 4096, PacketKind.DATA))
    sim.run(until=100_000.0)
    assert delivered == [(7, 1)]
    assert peer.delivered_segments_by_flow[7] == 1


def test_processing_delay_applied():
    # In the testbed the delay rides on the switch port's arrival
    # event: wire time, then propagation, then the peer's processing.
    testbed = Testbed(HostConfig.cascade_lake())
    peer = testbed.remote
    peer.register_receiver(7)
    times = []
    peer.on_delivery = lambda flow, segs: times.append(testbed.sim.now)
    testbed.port_to_remote.enqueue(Packet(7, 0, 4096, PacketKind.DATA))
    testbed.sim.run(until=100_000.0)
    wire_ns = 4096 * 8 / LINK_GBPS
    propagation_ns = testbed.port_to_remote.propagation_ns
    assert times == [wire_ns + propagation_ns + PROCESSING_DELAY_NS]


def test_rto_recovers_lost_window():
    sim, peer, sent = make_peer()
    sender = peer.register_sender(1)
    peer.pump(1)  # packets "lost": no acks ever come back
    sent.clear()
    sim.run(until=RTO_NS * 3)
    assert sender.timeouts >= 1
    retx = [p for p in sent if p.retransmission]
    assert retx and retx[0].seq == 0


def test_unknown_flow_packets_ignored():
    sim, peer, sent = make_peer()
    peer.packet_from_wire(Packet(99, 0, 4096, PacketKind.DATA))
    sim.run(until=100_000.0)
    assert sent == []


def test_start_all_kicks_every_sender():
    sim, peer, sent = make_peer()
    peer.register_sender(1)
    peer.register_sender(2)
    peer.start_all()
    flows = {p.flow_id for p in sent}
    assert flows == {1, 2}
