"""Discrete-event simulation engine.

The engine is a classic event-calendar simulator: a priority queue of
``(time, sequence, callback, handle)`` entries and a clock that jumps
from event to event.  All simulated subsystems in :mod:`repro` — the
IOMMU, the NIC DMA engine, the DCTCP transport — are driven from a
single :class:`Simulator` instance so that their interactions (cache
contention, queue build-up, drops) are causally ordered.

Time is measured in **nanoseconds** throughout the library, stored as
floats.  Nanoseconds are the natural unit for the paper's quantities
(memory reads cost ~197 ns, a 4 KB packet at 100 Gbps lasts ~328 ns).

Components schedule callbacks: ``sim.call_at(t, fn)`` /
``sim.call_after(dt, fn)``.

The engine is deterministic: events scheduled for the same timestamp fire
in scheduling order (FIFO), which makes every experiment exactly
reproducible for a given seed.

Hot-path design.  Heap entries are plain tuples ``(time, seq, callback,
handle)`` rather than :class:`Event` objects: ``heapq``'s C
implementation then orders entries with C-level tuple comparison
(``time`` first, the unique ``seq`` as tie-break — ``callback`` is never
compared) instead of calling a Python-level ``__lt__`` per sift step,
which dominated the interpreter profile.  The ``handle`` slot is
``None`` for the common schedule-and-forget case; only
:meth:`Simulator.call_at`/:meth:`Simulator.call_after` allocate an
:class:`Event` handle, for callers that need cancellation or the
housekeeping marker.  :meth:`Simulator.run` additionally drains bursts
of same-timestamp events without re-checking the run horizon between
them.

Cancellation.  A cancelled event stays in the heap and is skipped when
popped, but the simulator counts its own cancelled entries: once they
exceed both :data:`COMPACT_FLOOR` and half the heap, it rebuilds the
heap in place from the live entries.  Re-armed timers (RTOs, NAPI
polls) would otherwise leave the heap mostly dead weight that every
push and pop sifts through.  The rebuild cannot change the execution
order: pops follow the total order of the unique ``(time, seq)`` keys,
and it removes exactly the entries :meth:`Simulator.run` would skip.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional

__all__ = [
    "Simulator",
    "Event",
    "SimulationError",
    "EarlyQuiescenceError",
    "Watchdog",
    "WatchdogError",
    "COMPACT_FLOOR",
]

# The calendar is rebuilt once more than this many cancelled entries
# make up more than half of it (the threshold asyncio's loop uses).
COMPACT_FLOOR = 100


class SimulationError(RuntimeError):
    """Raised for invalid uses of the simulation engine.

    Examples: scheduling an event in the past, or running a simulator
    that has already been stopped.
    """


class EarlyQuiescenceError(SimulationError):
    """``run(until=..., strict_until=True)`` drained the calendar early.

    A run that was asked to simulate up to ``until`` but ran out of
    events beforehand usually means the workload died (all flows
    stalled, a pump was never primed) — silently returning would let an
    experiment report zeros as if they were measurements.
    """

    def __init__(self, now: float, until: float) -> None:
        super().__init__(
            f"simulation quiesced at t={now:.1f}ns, before "
            f"until={until:.1f}ns: the event calendar drained early"
        )
        self.now = now
        self.until = until


class WatchdogError(SimulationError):
    """A :class:`Watchdog` saw pending events but no progress.

    Carries the pending-event trace so a deadlocked/livelocked run
    identifies its stuck callbacks instead of spinning forever.
    """

    def __init__(self, message: str, pending_trace: list[str]) -> None:
        trace = "\n".join(f"  {line}" for line in pending_trace)
        super().__init__(f"{message}\npending events:\n{trace}")
        self.pending_trace = pending_trace


class Event:
    """A handle for a scheduled callback.

    Events are returned by :meth:`Simulator.call_at` and can be cancelled
    (e.g. a retransmission timer that is defused by an ACK).  Cancelled
    events stay in the heap, skipped when popped, until the simulator
    compacts its calendar (see the module docstring).
    """

    __slots__ = (
        "time", "seq", "callback", "cancelled", "housekeeping", "_sim"
    )

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[[], Any],
        housekeeping: bool = False,
        sim: Optional["Simulator"] = None,
    ):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.cancelled = False
        # Housekeeping events (watchdog ticks, metrics-sampler ticks)
        # observe the run without being part of the workload: they are
        # excluded from ``alive_events`` so they neither mask early
        # quiescence nor keep each other alive forever.
        self.housekeeping = housekeeping
        # The simulator whose heap holds this event; cleared when the
        # event is popped, so only a pending event counts as a
        # cancelled heap entry.
        self._sim = sim

    def cancel(self) -> None:
        """Prevent this event's callback from running (idempotent)."""
        if self.cancelled:
            return
        self.cancelled = True
        sim = self._sim
        if sim is not None:
            self._sim = None
            sim._entry_cancelled()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<Event t={self.time:.1f}ns {state}>"


class Simulator:
    """The event calendar and clock.

    Typical use::

        sim = Simulator()
        sim.call_after(100.0, lambda: print("fired at", sim.now))
        sim.run(until=1_000_000)   # simulate 1 ms
    """

    def __init__(self) -> None:
        # Heap entries: (time, seq, callback, Event-or-None).
        self._heap: list[tuple] = []
        self._seq = 0
        # Current simulated time in nanoseconds.  A plain attribute
        # (read on every packet); only the event loop assigns it.
        self.now = 0.0
        self._running = False
        self._stopped = False
        # Cancelled entries still in the heap.
        self._cancelled = 0
        self.executed_events = 0

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def call_at(
        self,
        time: float,
        callback: Callable[[], Any],
        housekeeping: bool = False,
        seq: Optional[int] = None,
    ) -> Event:
        """Schedule ``callback`` to run at absolute simulated ``time``.

        Returns an :class:`Event` handle that may be cancelled.  Raises
        :class:`SimulationError` if ``time`` is in the past.
        ``housekeeping=True`` marks the event as an observer (watchdog
        or sampler tick) that does not count toward :attr:`alive_events`.
        A ``seq`` from :meth:`take_seq` orders it as if scheduled then.

        Callers that never cancel the event should prefer
        :meth:`schedule_at`, which skips the handle allocation.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time} (now is {self.now})"
            )
        if seq is None:
            seq = self.take_seq()
        event = Event(time, seq, callback, housekeeping, self)
        heapq.heappush(self._heap, (time, seq, callback, event))
        return event

    def take_seq(self) -> int:
        """Take the next sequence number without scheduling anything."""
        seq = self._seq
        self._seq = seq + 1
        return seq

    def call_after(
        self,
        delay: float,
        callback: Callable[[], Any],
        housekeeping: bool = False,
    ) -> Event:
        """Schedule ``callback`` to run ``delay`` ns from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.call_at(
            self.now + delay, callback, housekeeping=housekeeping
        )

    def schedule_at(self, time: float, callback: Callable[[], Any]) -> None:
        """Schedule-and-forget fast path: no cancellation handle.

        Identical ordering semantics to :meth:`call_at`, but pushes a
        bare heap entry without allocating an :class:`Event`.  The hot
        per-packet/per-DMA schedulers use this; anything that may need
        to cancel (RTO timers, NAPI poll timers) must use
        :meth:`call_at`.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time} (now is {self.now})"
            )
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (time, seq, callback, None))

    def schedule_after(
        self, delay: float, callback: Callable[[], Any]
    ) -> None:
        """``delay`` ns from now, without a cancellation handle."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        self.schedule_at(self.now + delay, callback)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Run the single next pending event.

        Returns ``True`` if an event ran, ``False`` if the calendar is
        empty.
        """
        heap = self._heap
        while heap:
            time, _seq, callback, event = heapq.heappop(heap)
            if event is not None:
                if event.cancelled:
                    self._cancelled -= 1
                    continue
                event._sim = None
            self.now = time
            self.executed_events += 1
            callback()
            return True
        return False

    def run(
        self,
        until: Optional[float] = None,
        strict_until: bool = False,
    ) -> float:
        """Run events until the calendar drains or ``until`` is reached.

        When ``until`` is given, the clock is advanced to exactly
        ``until`` at the end even if the last event fired earlier, so
        rate computations (bytes / elapsed) are well defined.

        ``strict_until=True`` turns a silent early drain into a
        structured :class:`EarlyQuiescenceError`: the calendar running
        dry before ``until`` (without :meth:`stop`) means the workload
        died, not that the experiment finished.

        Returns the final simulated time.
        """
        if strict_until and until is None:
            raise SimulationError("strict_until requires until")
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        self._stopped = False
        heap = self._heap
        pop = heapq.heappop
        executed = self.executed_events
        try:
            while heap and not self._stopped:
                burst_time = heap[0][0]
                if until is not None and burst_time > until:
                    break
                # Drain the whole burst at this timestamp: entries
                # pushed *during* the burst for the same time get larger
                # seq values, so the inner loop picks them up in exactly
                # the order the heap would have.
                while heap and heap[0][0] == burst_time:  # noqa: REPRO003
                    entry = pop(heap)
                    event = entry[3]
                    if event is not None:
                        if event.cancelled:
                            self._cancelled -= 1
                            continue
                        event._sim = None
                    self.now = burst_time
                    executed += 1
                    entry[2]()
                    if self._stopped:
                        break
        finally:
            self.executed_events = executed
            self._running = False
        if until is not None and self.now < until and not self._stopped:
            if strict_until and self.alive_events == 0:
                raise EarlyQuiescenceError(self.now, until)
            self.now = until
        return self.now

    def stop(self) -> None:
        """Stop a running :meth:`run` after the current event completes."""
        self._stopped = True

    def _entry_cancelled(self) -> None:
        """Count one cancelled heap entry; compact when they dominate."""
        cancelled = self._cancelled + 1
        heap = self._heap
        if cancelled > COMPACT_FLOOR and cancelled + cancelled > len(heap):
            # In place: a running ``run`` holds this very list.
            heap[:] = [
                entry
                for entry in heap
                if entry[3] is None or not entry[3].cancelled
            ]
            heapq.heapify(heap)
            cancelled = 0
        self._cancelled = cancelled

    @property
    def pending_events(self) -> int:
        """Entries in the calendar: live events plus cancelled entries
        not yet compacted."""
        return len(self._heap)

    @property
    def alive_events(self) -> int:
        """Non-cancelled workload events in the calendar.

        Housekeeping events (watchdog / sampler ticks) are excluded:
        they observe the run and must not make a drained workload look
        alive — nor keep each other ticking forever.
        """
        count = 0
        for entry in self._heap:
            event = entry[3]
            if event is None:
                count += 1
            elif not event.cancelled and not event.housekeeping:
                count += 1
        return count

    def pending_event_summary(self, limit: int = 16) -> list[str]:
        """The next ``limit`` alive events, formatted for diagnostics."""
        alive = sorted(
            (entry[0], entry[1], entry[2])
            for entry in self._heap
            if entry[3] is None
            or (not entry[3].cancelled and not entry[3].housekeeping)
        )
        lines = []
        for time, seq, callback in alive[:limit]:
            # A ``functools.partial`` is named after the function it binds.
            target = getattr(callback, "func", callback)
            name = getattr(
                target, "__qualname__", None
            ) or getattr(target, "__name__", repr(target))
            lines.append(f"t={time:.1f}ns seq={seq} {name}")
        overflow = len(alive) - limit
        if overflow > 0:
            lines.append(f"... and {overflow} more")
        return lines


class Watchdog:
    """Detects quiesced-but-unfinished runs (deadlock / livelock).

    Every ``interval_ns`` the watchdog samples a caller-supplied
    ``progress`` function (any comparable value — typically a tuple of
    monotonically increasing counters).  If a full interval passes with
    pending events but an unchanged sample, the run is spinning without
    doing work and a :class:`WatchdogError` carrying the pending-event
    trace is raised out of :meth:`Simulator.run`.

    The watchdog's own timer keeps the calendar non-empty, so it
    disarms itself when it is the only thing left alive (a normally
    finished run); pair with ``strict_until`` to catch early drains.
    """

    def __init__(
        self,
        sim: Simulator,
        interval_ns: float,
        progress: Callable[[], Any],
        trace_limit: int = 16,
    ) -> None:
        if interval_ns <= 0:
            raise SimulationError(
                f"watchdog interval must be positive, got {interval_ns}"
            )
        self.sim = sim
        self.interval_ns = interval_ns
        self.progress = progress
        self.trace_limit = trace_limit
        self.checks = 0
        self._last: Any = None
        self._armed = False

    def arm(self) -> None:
        """Start (or restart) periodic progress checks."""
        if self._armed:
            return
        self._armed = True
        self._last = self.progress()
        self.sim.call_after(self.interval_ns, self._tick, housekeeping=True)

    def _tick(self) -> None:
        self.checks += 1
        if self.sim.alive_events == 0:
            # Nothing left but us: the run is over, not stuck.
            self._armed = False
            return
        current = self.progress()
        if current == self._last:
            # Disarm before raising so the watchdog can be re-armed for
            # another run attempt; otherwise ``arm()`` would be a silent
            # no-op forever after the first error.
            self._armed = False
            # Summarize the head of the pending calendar inline so the
            # one-line message already names the stuck callbacks (the
            # full trace still rides on the exception).
            upcoming = self.sim.pending_event_summary(3)
            raise WatchdogError(
                f"no progress for {self.interval_ns:.0f}ns with "
                f"{self.sim.alive_events} events pending "
                f"(deadlock/livelock); next: {'; '.join(upcoming)}",
                self.sim.pending_event_summary(self.trace_limit),
            )
        self._last = current
        self.sim.call_after(self.interval_ns, self._tick, housekeeping=True)
