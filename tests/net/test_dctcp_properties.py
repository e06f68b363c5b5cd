"""Property-based tests for DCTCP invariants under arbitrary schedules.

The transport drives every experiment's drop/ACK dynamics, so its state
machine must stay sane under any interleaving of deliveries, losses,
reordering, ECN marks and timeouts.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import DctcpReceiver, DctcpSender
from repro.net.dctcp import MAX_CWND, MIN_CWND

# One network "script" step: what happens to the next sent packet.
DELIVER, DROP, REORDER = "deliver", "drop", "reorder"


@st.composite
def network_scripts(draw):
    steps = draw(
        st.lists(
            st.tuples(
                st.sampled_from([DELIVER, DELIVER, DELIVER, DROP, REORDER]),
                st.booleans(),  # ECN mark
            ),
            min_size=5,
            max_size=150,
        )
    )
    return steps


@given(network_scripts())
@settings(max_examples=60, deadline=None)
def test_transport_invariants_under_chaos(script):
    """Run a sender/receiver pair through an adversarial network and
    check the invariants after every event."""
    sender = DctcpSender(1, 4096)
    sender.cwnd = 6.0
    receiver = DctcpReceiver(1)
    reorder_buffer = []
    now = 0.0
    for action, mark in script:
        now += 10_000.0
        packets = sender.take_packets(now, max_count=4)
        # Deliver any reordered stragglers first half the time.
        if reorder_buffer and action != REORDER:
            packets = reorder_buffer + packets
            reorder_buffer = []
        for packet in packets:
            if action == DROP:
                action = DELIVER  # drop only the first of the batch
                continue
            if action == REORDER:
                reorder_buffer.append(packet)
                action = DELIVER
                continue
            packet.ecn_marked = mark
            _delivered, ack = receiver.on_data(packet, now, ack_every=2)
            if ack is not None:
                sender.on_ack(ack, now)
        if now >= sender.rto_deadline_ns and sender.inflight > 0:
            sender.on_rto(now)
        # --- Invariants ---
        assert sender.snd_una <= sender.snd_nxt
        assert sender.inflight >= 0
        assert sender.cwnd >= MIN_CWND
        assert sender.cwnd <= MAX_CWND
        assert 0.0 <= sender.alpha <= 1.0
        assert receiver.rcv_nxt <= sender.snd_nxt
        assert receiver.delivered_segments == receiver.rcv_nxt
    # Everything ever delivered in order was really sent.
    assert receiver.rcv_nxt <= sender.segments_sent


@given(st.integers(min_value=1, max_value=60))
@settings(max_examples=30, deadline=None)
def test_lossless_in_order_path_delivers_exactly_once(rounds):
    """With no loss and no reordering, delivery == send order and no
    retransmissions ever happen."""
    sender = DctcpSender(1, 4096)
    receiver = DctcpReceiver(1)
    for _ in range(rounds):
        for packet in sender.take_packets(0.0, max_count=8):
            _, ack = receiver.on_data(packet, 0.0, ack_every=2)
            if ack is not None:
                sender.on_ack(ack, 0.0)
    assert sender.retransmissions == 0
    assert receiver.duplicates_received == 0
    assert receiver.rcv_nxt == sender.snd_una


@given(
    st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=60)
)
@settings(max_examples=40, deadline=None)
def test_receiver_reassembly_is_exactly_once(seqs):
    """Feed arbitrary (duplicated, reordered) sequence numbers: the
    receiver delivers each distinct in-order segment exactly once."""
    from repro.net import Packet, PacketKind

    receiver = DctcpReceiver(1)
    delivered = 0
    for seq in seqs:
        got, _ack = receiver.on_data(
            Packet(1, seq, 4096, PacketKind.DATA), 0.0, ack_every=4
        )
        delivered += got
    distinct = set(seqs)
    contiguous = 0
    while contiguous in distinct:
        contiguous += 1
    assert delivered == contiguous
    assert receiver.rcv_nxt == contiguous
