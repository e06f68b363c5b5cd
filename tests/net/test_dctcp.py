"""Unit tests for the DCTCP sender/receiver state machines."""

import pytest

from repro.net import DctcpReceiver, DctcpSender, Packet, PacketKind
from repro.net.dctcp import MIN_CWND, RTO_NS


def make_sender(init_cwnd=4.0, **kwargs):
    sender = DctcpSender(flow_id=1, mtu_bytes=4096, **kwargs)
    sender.cwnd = init_cwnd
    return sender


def ack(seq, ecn=False):
    packet = Packet(1, seq, 64, PacketKind.ACK)
    packet.ecn_echo = ecn
    return packet


class TestSenderWindow:
    def test_initial_window_limits_sends(self):
        sender = make_sender()
        packets = sender.take_packets(now=0.0)
        assert len(packets) == 4
        assert [p.seq for p in packets] == [0, 1, 2, 3]
        assert sender.take_packets(now=0.0) == []

    def test_ack_opens_window(self):
        sender = make_sender()
        sender.take_packets(0.0)
        sender.on_ack(ack(2), 10.0)
        packets = sender.take_packets(10.0)
        assert len(packets) >= 2
        assert packets[0].seq == 4

    def test_slow_start_doubles_per_window(self):
        sender = make_sender()
        sender.take_packets(0.0)
        for seq in (1, 2, 3, 4):
            sender.on_ack(ack(seq), 10.0)
        assert sender.cwnd == pytest.approx(8.0)

    def test_congestion_avoidance_linear(self):
        sender = make_sender()
        sender.ssthresh = 4.0
        sender.in_slow_start = False
        sender.take_packets(0.0)
        sender.on_ack(ack(4), 10.0)
        # cwnd grows by ~1 segment per cwnd acked.
        assert 4.0 < sender.cwnd <= 5.5

    def test_max_count_limits_take(self):
        sender = make_sender()
        assert len(sender.take_packets(0.0, max_count=2)) == 2

    def test_limited_flow_respects_backlog(self):
        sender = make_sender(unlimited=False)
        assert sender.take_packets(0.0) == []
        sender.enqueue_segments(2)
        assert len(sender.take_packets(0.0)) == 2
        assert sender.take_packets(0.0) == []


class TestEcn:
    def test_marked_window_shrinks_cwnd(self):
        sender = make_sender()
        sender.take_packets(0.0)
        sender.window_end = 4
        for seq in (1, 2, 3):
            sender.on_ack(ack(seq, ecn=True), 10.0)
        before = sender.cwnd
        sender.on_ack(ack(4, ecn=True), 10.0)
        assert sender.cwnd < before
        assert sender.alpha > 0
        assert not sender.in_slow_start

    def test_unmarked_window_keeps_growing_and_alpha_decays(self):
        sender = make_sender()
        sender.take_packets(0.0)
        sender.window_end = 4
        for seq in (1, 2, 3, 4):
            sender.on_ack(ack(seq), 10.0)
        assert sender.cwnd > 4.0
        # Alpha decays geometrically when nothing is marked.
        assert sender.alpha < 1.0

    def test_alpha_converges_to_mark_fraction(self):
        sender = make_sender()
        sender.in_slow_start = False
        for _ in range(100):
            sender.take_packets(0.0)
            # Ack the window fully marked.
            sender.window_end = sender.snd_nxt
            sender.on_ack(ack(sender.snd_nxt, ecn=True), 0.0)
        assert sender.alpha > 0.9


class TestLossRecovery:
    def test_three_dupacks_trigger_fast_retransmit(self):
        sender = make_sender()
        sender.take_packets(0.0)
        for _ in range(3):
            sender.on_ack(ack(0), 5.0)
        assert sender.fast_retransmits == 1
        retx = sender.take_packets(5.0)
        assert retx[0].seq == 0
        assert retx[0].retransmission

    def test_fast_retransmit_halves_window(self):
        sender = make_sender(init_cwnd=16.0)
        sender.take_packets(0.0)
        for _ in range(3):
            sender.on_ack(ack(0), 5.0)
        assert sender.cwnd == pytest.approx(8.0)

    def test_recovery_exits_on_full_ack(self):
        sender = make_sender()
        sender.take_packets(0.0)
        for _ in range(3):
            sender.on_ack(ack(0), 5.0)
        sender.take_packets(5.0)
        sender.on_ack(ack(4), 10.0)
        assert sender.recovery_until is None

    def test_partial_ack_retransmits_next_hole(self):
        sender = make_sender()
        sender.take_packets(0.0)  # seqs 0..3
        for _ in range(3):
            sender.on_ack(ack(0), 5.0)
        sender.take_packets(5.0)  # retransmit 0
        sender.on_ack(ack(2), 10.0)  # 1 also lost
        retx = sender.take_packets(10.0)
        assert retx[0].seq == 2
        assert retx[0].retransmission

    def test_rto_collapses_window(self):
        sender = make_sender(init_cwnd=16.0)
        sender.take_packets(0.0)
        sender.on_rto(now=1_000_000.0)
        assert sender.cwnd == MIN_CWND
        assert sender.timeouts == 1
        retx = sender.take_packets(1_000_000.0)
        assert retx[0].seq == 0

    def test_rto_backoff_doubles(self):
        sender = make_sender()
        sender.take_packets(0.0)
        first_deadline = sender.rto_deadline_ns
        sender.on_rto(RTO_NS)
        assert sender.rto_deadline_ns > first_deadline * 1.5

    def test_idle_rto_is_noop(self):
        sender = make_sender()
        sender.take_packets(0.0)
        sender.on_ack(ack(4), 5.0)
        sender.on_rto(10.0)
        assert sender.timeouts == 0


class TestReceiver:
    def data(self, seq, marked=False):
        packet = Packet(1, seq, 4096, PacketKind.DATA)
        packet.ecn_marked = marked
        return packet

    def test_in_order_delivery_with_delayed_ack(self):
        receiver = DctcpReceiver(1)
        delivered, ack1 = receiver.on_data(self.data(0), 0.0, ack_every=2)
        assert delivered == 1 and ack1 is None
        delivered, ack2 = receiver.on_data(self.data(1), 0.0, ack_every=2)
        assert delivered == 1 and ack2 is not None
        assert ack2.seq == 2

    def test_out_of_order_triggers_immediate_dupack(self):
        receiver = DctcpReceiver(1)
        receiver.on_data(self.data(0), 0.0, ack_every=64)
        delivered, dup = receiver.on_data(self.data(2), 0.0, ack_every=64)
        assert delivered == 0
        assert dup is not None and dup.seq == 1
        assert dup.sack_seq == 2
        assert receiver.out_of_order_segments == 1

    def test_gap_fill_delivers_buffered(self):
        receiver = DctcpReceiver(1)
        receiver.on_data(self.data(0), 0.0, ack_every=64)
        receiver.on_data(self.data(2), 0.0, ack_every=64)
        receiver.on_data(self.data(3), 0.0, ack_every=64)
        delivered, ack_pkt = receiver.on_data(self.data(1), 0.0, ack_every=64)
        assert delivered == 3
        assert ack_pkt is not None and ack_pkt.seq == 4
        assert receiver.out_of_order_segments == 0

    def test_duplicate_segment_acked_immediately(self):
        receiver = DctcpReceiver(1)
        receiver.on_data(self.data(0), 0.0, ack_every=64)
        delivered, dup = receiver.on_data(self.data(0), 0.0, ack_every=64)
        assert delivered == 0
        assert dup is not None
        assert receiver.duplicates_received == 1

    def test_ecn_mark_echoed_once(self):
        receiver = DctcpReceiver(1)
        _, ack1 = receiver.on_data(self.data(0, marked=True), 0.0, ack_every=1)
        assert ack1.ecn_echo
        _, ack2 = receiver.on_data(self.data(1), 0.0, ack_every=1)
        assert not ack2.ecn_echo

    def test_flush_ack_emits_pending(self):
        receiver = DctcpReceiver(1)
        receiver.on_data(self.data(0), 0.0, ack_every=8)
        flushed = receiver.flush_ack(100.0)
        assert flushed is not None and flushed.seq == 1
        assert receiver.flush_ack(100.0) is None


class TestClosedLoop:
    def test_lossless_exchange_delivers_everything(self):
        """Sender and receiver glued directly: all segments arrive, all
        are delivered in order, windows grow, no retransmissions."""
        sender = make_sender(init_cwnd=4.0)
        receiver = DctcpReceiver(1)
        delivered = 0
        for _ in range(200):
            for packet in sender.take_packets(0.0, max_count=8):
                got, maybe_ack = receiver.on_data(packet, 0.0, ack_every=2)
                delivered += got
                if maybe_ack:
                    sender.on_ack(maybe_ack, 0.0)
        assert delivered > 300
        assert sender.retransmissions == 0
        assert receiver.rcv_nxt == delivered

    def test_single_loss_recovers_without_rto(self):
        sender = make_sender(init_cwnd=8.0)
        receiver = DctcpReceiver(1)
        lost_once = False
        delivered = 0
        for _ in range(100):
            for packet in sender.take_packets(0.0, max_count=8):
                if packet.seq == 5 and not lost_once:
                    lost_once = True
                    continue  # drop it
                got, maybe_ack = receiver.on_data(packet, 0.0, ack_every=2)
                delivered += got
                if maybe_ack:
                    sender.on_ack(maybe_ack, 0.0)
        assert sender.retransmissions >= 1
        assert sender.timeouts == 0
        assert receiver.rcv_nxt == delivered
        assert delivered > 100
