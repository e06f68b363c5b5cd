"""DCTCP sender and receiver state machines.

The paper's testbed transport is DCTCP [Alizadeh et al. 2010] with all
standard Linux offloads; its dynamics matter to the reproduction
because the flow-count → drop-rate → ACK-rate feedback loop is what
drives IOTLB/PTcache contention (paper §2.2, Fig 2).  We therefore
model:

* **ECN-based congestion avoidance** — the switch marks packets above a
  queue threshold, receivers echo marks, and the sender maintains the
  DCTCP fraction ``alpha``, multiplicatively decreasing ``cwnd`` by
  ``alpha/2`` once per window;

* **loss recovery** — three duplicate ACKs trigger a NewReno-style fast
  retransmit with window halving; a retransmission timeout collapses
  the window to one segment with exponential backoff (the paper's
  P99.9+ tail latencies are RTO-dominated);

* **delayed ACKs** — receivers ACK once per ``ack_every`` in-order
  segments (the GRO-coalescing the host model computes) but ACK
  *immediately* on out-of-order arrivals, which is why drops inflate
  the ACK rate.

Sequence numbers count MTU-sized segments.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from ..context import current_context
from .packet import ACK_SIZE_BYTES, Packet, PacketKind

if TYPE_CHECKING:  # pragma: no cover
    from ..sim import Event, Simulator

__all__ = ["DctcpSender", "DctcpReceiver", "RtoTimer"]

# Transport constants shared by every flow (segment units).
INIT_CWND = 10.0
MIN_CWND = 1.0
MAX_CWND = 512.0
# Cap the slow-start overshoot: real stacks exit slow start early via
# HyStart; without it, many flows ramping to MAX_CWND simultaneously
# dump megabytes into the first RTT.
INIT_SSTHRESH = 128.0
DCTCP_G = 0.0625
RTO_NS = 4_000_000.0  # 4 ms, datacenter-tuned minimum
DUPACK_THRESHOLD = 3


class DctcpSender:
    """Sender-side DCTCP state for one flow.

    The owner drives it with three entry points: :meth:`take_packets`
    (pull sendable segments), :meth:`on_ack` (process a returning ACK)
    and :meth:`on_rto` (fire a retransmission timeout).  The owner arms
    an :class:`RtoTimer` after every pump.
    """

    def __init__(
        self,
        flow_id: int,
        mtu_bytes: int,
        unlimited: bool = True,
        segment_bytes: Optional[int] = None,
    ) -> None:
        self.flow_id = flow_id
        self.segment_bytes = segment_bytes or mtu_bytes
        self.unlimited = unlimited
        self.pending_segments = 0  # app backlog when not unlimited
        # Window state (segment units).
        self.snd_una = 0
        self.snd_nxt = 0
        self.cwnd = INIT_CWND
        self.ssthresh = INIT_SSTHRESH
        self.in_slow_start = True
        # Fast recovery.
        self.dupacks = 0
        self.recovery_until: Optional[int] = None
        self._retransmit_queue: list[int] = []
        # DCTCP alpha machinery.  Linux initializes alpha to 1
        # (dctcp_alpha_on_init), so the first marked window halves.
        self.alpha = 1.0
        self.window_end = 0
        self.acked_in_window = 0
        self.marked_in_window = 0
        # RTO.
        self.rto_backoff = 1
        self.last_progress_ns = 0.0
        # Stats.
        self.segments_sent = 0
        self.retransmissions = 0
        self.timeouts = 0
        self.fast_retransmits = 0
        self.obs = current_context().registry
        if self.obs is not None:
            scope = self.obs.scope(f"dctcp.flow{self.flow_id}")
            scope.counter("segments_sent", lambda: self.segments_sent)
            scope.counter(
                "retransmissions", lambda: self.retransmissions
            )
            scope.counter("timeouts", lambda: self.timeouts)
            scope.counter(
                "fast_retransmits", lambda: self.fast_retransmits
            )
            scope.gauge("cwnd", lambda: self.cwnd)
            scope.gauge("inflight", lambda: self.inflight)

    # ------------------------------------------------------------------
    # App interface
    # ------------------------------------------------------------------
    def enqueue_segments(self, count: int) -> None:
        """Add app data (message-mode flows)."""
        if self.unlimited:
            return
        self.pending_segments += count

    @property
    def inflight(self) -> int:
        return self.snd_nxt - self.snd_una

    def can_send(self) -> int:
        """Number of segments the window allows right now."""
        budget = int(self.cwnd) - self.inflight
        if budget <= 0:
            return 1 if self._retransmit_queue else 0
        if not self.unlimited:
            budget = min(
                budget, self.pending_segments + len(self._retransmit_queue)
            )
        return max(budget, 0)

    def take_packets(self, now: float, max_count: Optional[int] = None) -> list[Packet]:
        """Pull up to ``max_count`` sendable segments (retx first)."""
        allowance = self.can_send()
        if max_count is not None:
            allowance = min(allowance, max_count)
        packets: list[Packet] = []
        while allowance > 0 and self._retransmit_queue:
            seq = self._retransmit_queue.pop(0)
            packet = Packet(
                self.flow_id, seq, self.segment_bytes, PacketKind.DATA, now
            )
            packet.retransmission = True
            packets.append(packet)
            self.retransmissions += 1
            self.segments_sent += 1
            allowance -= 1
        while allowance > 0:
            if not self.unlimited:
                if self.pending_segments <= 0:
                    break
                self.pending_segments -= 1
            packets.append(
                Packet(
                    self.flow_id,
                    self.snd_nxt,
                    self.segment_bytes,
                    PacketKind.DATA,
                    now,
                )
            )
            self.snd_nxt += 1
            self.segments_sent += 1
            allowance -= 1
        return packets

    # ------------------------------------------------------------------
    # ACK processing
    # ------------------------------------------------------------------
    def on_ack(self, ack: Packet, now: float) -> None:
        """Process a (possibly duplicate) cumulative ACK."""
        ack_seq = ack.seq
        if ack_seq > self.snd_una:
            newly_acked = ack_seq - self.snd_una
            self.snd_una = ack_seq
            self.dupacks = 0
            self.last_progress_ns = now
            self.rto_backoff = 1
            self._account_ecn(newly_acked, ack.ecn_echo)
            if self.recovery_until is not None:
                if self.snd_una >= self.recovery_until:
                    self.recovery_until = None
                else:
                    # Partial ACK: the next hole was also lost.
                    self._queue_retransmit(self.snd_una)
            else:
                self._grow_cwnd(newly_acked)
            self._maybe_update_alpha()
        elif ack_seq == self.snd_una and self.inflight > 0:
            self.dupacks += 1
            if (
                self.dupacks >= DUPACK_THRESHOLD
                and self.recovery_until is None
            ):
                self._enter_fast_recovery()

    def _account_ecn(self, newly_acked: int, marked: bool) -> None:
        self.acked_in_window += newly_acked
        if marked:
            self.marked_in_window += newly_acked

    def _grow_cwnd(self, newly_acked: int) -> None:
        if self.in_slow_start:
            self.cwnd += newly_acked
            if self.cwnd >= self.ssthresh:
                self.cwnd = self.ssthresh
                self.in_slow_start = False
        else:
            self.cwnd += newly_acked / self.cwnd
        self.cwnd = min(self.cwnd, MAX_CWND)

    def _maybe_update_alpha(self) -> None:
        """Once per window of data: fold the marked fraction into alpha
        and apply DCTCP's multiplicative decrease if marks were seen."""
        if self.snd_una < self.window_end:
            return
        if self.acked_in_window > 0:
            fraction = self.marked_in_window / self.acked_in_window
            g = DCTCP_G
            self.alpha = (1 - g) * self.alpha + g * fraction
            if self.marked_in_window > 0:
                self.cwnd = max(
                    self.cwnd * (1 - self.alpha / 2), MIN_CWND
                )
                self.in_slow_start = False
        self.acked_in_window = 0
        self.marked_in_window = 0
        self.window_end = self.snd_nxt

    def _enter_fast_recovery(self) -> None:
        self.recovery_until = self.snd_nxt
        self.ssthresh = max(self.cwnd / 2, MIN_CWND)
        self.cwnd = max(self.ssthresh, MIN_CWND)
        self.in_slow_start = False
        self._queue_retransmit(self.snd_una)
        self.fast_retransmits += 1

    def _queue_retransmit(self, seq: int) -> None:
        if seq not in self._retransmit_queue:
            self._retransmit_queue.append(seq)

    # ------------------------------------------------------------------
    # RTO
    # ------------------------------------------------------------------
    @property
    def rto_deadline_ns(self) -> float:
        """When the owner's RTO timer should fire if no progress."""
        return self.last_progress_ns + RTO_NS * self.rto_backoff

    def on_rto(self, now: float) -> None:
        """Retransmission timeout: collapse window, go-back-N."""
        if self.inflight == 0 and not self._retransmit_queue:
            return
        self.ssthresh = max(self.cwnd / 2, MIN_CWND)
        self.cwnd = MIN_CWND
        self.in_slow_start = True
        self.recovery_until = None
        self.dupacks = 0
        self._retransmit_queue = [self.snd_una]
        # Go-back-N: everything past snd_una will be resent as the
        # window reopens.
        self.snd_nxt = self.snd_una + 1
        self.rto_backoff = min(self.rto_backoff * 2, 16)
        self.last_progress_ns = now
        self.timeouts += 1


class RtoTimer:
    """One sender's retransmission timer, re-armed lazily.

    The owner arms it after every pump, and ACKs only move the deadline
    later, so a pending timer that fires no later than the new deadline
    is kept; only a deadline that moved earlier cancels it.  Each arm
    takes a sequence number, and a timer that wakes before the latest
    arm's ``(deadline, seq)`` moves there, so it runs in exactly the
    slot of a timer re-pushed on every arm, ties included.
    """

    __slots__ = ("sim", "sender", "on_timeout", "event", "deadline", "seq")

    def __init__(
        self,
        sim: "Simulator",
        sender: DctcpSender,
        on_timeout: Callable[[], None],
    ) -> None:
        self.sim = sim
        self.sender = sender
        self.on_timeout = on_timeout  # runs after ``sender.on_rto``
        self.event: Optional["Event"] = None
        self.deadline = 0.0
        self.seq = 0

    def arm(self) -> None:
        """Make sure a timer fires by the sender's deadline."""
        sender = self.sender
        if sender.inflight == 0:
            return
        sim = self.sim
        self.deadline = deadline = max(sender.rto_deadline_ns, sim.now)
        self.seq = seq = sim.take_seq()
        event = self.event
        if event is not None:
            if event.time <= deadline:
                return
            event.cancel()
        self.event = sim.call_at(deadline, self._fire, seq=seq)

    def _fire(self) -> None:
        if self.event is not None and self.event.seq != self.seq:
            # Woke before the latest arm's slot: move there.
            self.event = self.sim.call_at(
                self.deadline, self._fire, seq=self.seq
            )
            return
        self.event = None
        sender = self.sender
        if sender.inflight == 0:
            return
        now = self.sim.now
        if now + 1e-9 < sender.rto_deadline_ns:
            self.arm()
            return
        sender.on_rto(now)
        self.on_timeout()


class DctcpReceiver:
    """Receiver-side state for one flow: reassembly and ACK policy."""

    def __init__(self, flow_id: int) -> None:
        self.flow_id = flow_id
        self.rcv_nxt = 0
        self._out_of_order: set[int] = set()
        self._pending_ack_segments = 0
        self._pending_ecn_echo = False
        self.segments_received = 0
        self.duplicates_received = 0
        self.delivered_segments = 0

    def on_data(
        self, packet: Packet, now: float, ack_every: int = 2
    ) -> tuple[int, Optional[Packet]]:
        """Process an arriving data segment.

        Returns ``(delivered_segments, ack_or_none)``: how many segments
        became deliverable in order, and an ACK packet if the policy
        emits one now.  ``ack_every`` is the delayed-ACK/GRO coalescing
        factor supplied by the host (per-batch ACKing).
        """
        self.segments_received += 1
        if packet.ecn_marked:
            self._pending_ecn_echo = True
        seq = packet.seq
        if seq < self.rcv_nxt or seq in self._out_of_order:
            # Duplicate (spurious retransmission): ACK immediately.
            self.duplicates_received += 1
            return 0, self._make_ack(now, dup_for=seq)
        if seq == self.rcv_nxt:
            self.rcv_nxt += 1
            delivered = 1
            while self.rcv_nxt in self._out_of_order:
                self._out_of_order.remove(self.rcv_nxt)
                self.rcv_nxt += 1
                delivered += 1
            self.delivered_segments += delivered
            filled_gap = delivered > 1
            self._pending_ack_segments += delivered
            if filled_gap or self._pending_ack_segments >= ack_every:
                return delivered, self._make_ack(now)
            return delivered, None
        # Out of order: buffer and duplicate-ACK immediately.
        self._out_of_order.add(seq)
        return 0, self._make_ack(now, dup_for=seq)

    def flush_ack(self, now: float) -> Optional[Packet]:
        """Emit a pending delayed ACK (the host's delayed-ACK timer)."""
        if self._pending_ack_segments == 0:
            return None
        return self._make_ack(now)

    def _make_ack(self, now: float, dup_for: Optional[int] = None) -> Packet:
        ack = Packet(
            self.flow_id, self.rcv_nxt, ACK_SIZE_BYTES, PacketKind.ACK, now
        )
        ack.ecn_echo = self._pending_ecn_echo
        ack.sack_seq = dup_for
        self._pending_ecn_echo = False
        self._pending_ack_segments = 0
        return ack

    @property
    def out_of_order_segments(self) -> int:
        return len(self._out_of_order)
