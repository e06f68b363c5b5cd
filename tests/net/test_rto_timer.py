"""The lazily re-armed RTO timer runs timeouts where an eager one would.

An eager timer cancels its event and pushes a new one on every arm, so
its timeout runs at ``(deadline, seq of the latest arm)``.  The lazy
timer keeps a pending event that fires no later than the deadline and
moves it on wakeup; these tests pin that it lands in the same slot.
"""

import pytest

from repro.net import DctcpSender, RtoTimer, dctcp
from repro.sim import Simulator

RTO_NS = 1_000.0


@pytest.fixture(autouse=True)
def short_rto(monkeypatch):
    monkeypatch.setattr(dctcp, "RTO_NS", RTO_NS)


def make_timer(sim, flow_id, fired):
    sender = DctcpSender(flow_id, 4096)
    sender.take_packets(sim.now)  # inflight > 0

    def on_timeout():
        fired.append((flow_id, sim.now))

    return sender, RtoTimer(sim, sender, on_timeout)


def test_ack_progress_keeps_one_pending_event():
    sim, fired = Simulator(), []
    sender, timer = make_timer(sim, 1, fired)
    timer.arm()
    for step in range(1, 6):
        # Each ACK moves the deadline 100 ns later; no event is pushed.
        sim.run(until=step * 100.0)
        sender.last_progress_ns = sim.now
        timer.arm()
        assert sim.pending_events == 1
    sim.run(until=5 * RTO_NS)
    assert fired == [(1, 500.0 + RTO_NS)]


def test_earlier_deadline_cancels_the_pending_event():
    sim, fired = Simulator(), []
    sender, timer = make_timer(sim, 1, fired)
    sender.rto_backoff = 4
    timer.arm()
    sender.rto_backoff = 1
    timer.arm()
    sim.run(until=10 * RTO_NS)
    assert fired == [(1, RTO_NS)]


def test_equal_deadlines_fire_in_the_order_of_their_latest_arms():
    # A and B share a deadline; A re-arms last (a pump with no ACK
    # progress), so an eager timer would run B's timeout first.
    sim, fired = Simulator(), []
    sender_a, timer_a = make_timer(sim, 1, fired)
    sender_b, timer_b = make_timer(sim, 2, fired)
    timer_a.arm()
    timer_b.arm()
    sim.run(until=100.0)
    timer_a.arm()
    sim.run(until=RTO_NS)
    assert fired == [(2, RTO_NS), (1, RTO_NS)]
