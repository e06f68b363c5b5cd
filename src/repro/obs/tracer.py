"""Span/event tracer emitting Chrome-trace (Perfetto-loadable) JSON.

The exported file follows the Trace Event Format's JSON-object flavour:
``{"traceEvents": [...], "displayTimeUnit": "ns"}`` where each entry is
a *complete* event (``"ph": "X"`` with ``ts``/``dur`` in microseconds),
an *instant* event (``"ph": "i"``) or metadata (``"ph": "M"``) naming
processes and threads.  Load the file at https://ui.perfetto.dev or in
``chrome://tracing``.

Mapping onto the simulation:

* **pid** — one experiment *phase* (one figure point / one testbed);
  phases start their simulated clock at 0, so separate pids keep their
  timelines from overlapping.
* **tid** — one *track* within a phase: the PCIe Rx/Tx pipelines, the
  IOMMU walker channels, the invalidation queue, driver recovery.
* **span** — one DMA, one page walk, one invalidation descriptor wait;
  retries and degraded flushes are instant events on the driver track.

Timestamps come from a bound simulated clock (see :meth:`bind_clock`);
without one, explicit span times still work and instants stamp 0.

Each phase keeps its *last* :data:`PHASE_EVENT_BUDGET` spans and
instants, so a long early phase cannot crowd the later ones out of the
file, and a phase's kept events cover the end of its run (the measured
window) rather than its warmup; metadata events are always kept.  The
written document's ``otherData.dropped_events`` counts the events
evicted past a budget.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Callable, Optional

__all__ = ["PHASE_EVENT_BUDGET", "SpanTracer"]

# Spans and instants kept per phase (Chrome-trace pid), the latest
# ones.  The quick Fig 12 sweep has five phases, so its trace stays
# under 200,000 events.
PHASE_EVENT_BUDGET = 39_000


class SpanTracer:
    """Collects Chrome-trace events from instrumented span sites."""

    def __init__(self) -> None:
        self.dropped_events = 0
        self._clock: Optional[Callable[[], float]] = None
        self._pid = 0
        self._tids: dict[tuple[int, str], int] = {}
        self._meta: list[dict] = []
        self._kept: dict[int, deque[dict]] = {}  # pid -> spans + instants

    @property
    def events(self) -> list[dict]:
        """Every event the written document holds, metadata first."""
        return self._meta + [
            event for kept in self._kept.values() for event in kept
        ]

    # ------------------------------------------------------------------
    # Clock and process (phase) management
    # ------------------------------------------------------------------
    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Bind the simulated clock (ns) used by clockless span sites."""
        self._clock = clock

    def now(self) -> float:
        """Current simulated time in ns (0.0 when no clock is bound)."""
        clock = self._clock
        return clock() if clock is not None else 0.0

    def set_process(self, pid: int, label: str) -> None:
        """Route subsequent events to Chrome-trace process ``pid``."""
        self._pid = pid
        self._meta.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": label},
            }
        )

    # ------------------------------------------------------------------
    # Event emission
    # ------------------------------------------------------------------
    def complete(
        self,
        name: str,
        track: str,
        start_ns: float,
        duration_ns: float,
        **args: object,
    ) -> None:
        """One finished span: ``[start_ns, start_ns + duration_ns)``."""
        event = {
            "name": name,
            "ph": "X",
            "ts": start_ns / 1000.0,  # Chrome trace wants microseconds
            "dur": max(duration_ns, 0.0) / 1000.0,
            "pid": self._pid,
            "tid": self._tid(track),
        }
        if args:
            event["args"] = args
        self._keep(event)

    def instant(
        self,
        name: str,
        track: str,
        ts_ns: Optional[float] = None,
        **args: object,
    ) -> None:
        """A point event (retry, degraded flush, drop)."""
        event = {
            "name": name,
            "ph": "i",
            "s": "t",  # thread-scoped instant
            "ts": (self.now() if ts_ns is None else ts_ns) / 1000.0,
            "pid": self._pid,
            "tid": self._tid(track),
        }
        if args:
            event["args"] = args
        self._keep(event)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "traceEvents": self.events,
            "displayTimeUnit": "ns",
            "otherData": {"dropped_events": self.dropped_events},
        }

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _tid(self, track: str) -> int:
        key = (self._pid, track)
        tid = self._tids.get(key)
        if tid is None:
            tid = len([k for k in self._tids if k[0] == self._pid]) + 1
            self._tids[key] = tid
            self._meta.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": self._pid,
                    "tid": tid,
                    "args": {"name": track},
                }
            )
        return tid

    def _keep(self, event: dict) -> None:
        """Keep one span or instant, evicting its phase's oldest past budget."""
        kept = self._kept.get(self._pid)
        if kept is None:
            kept = self._kept[self._pid] = deque(maxlen=PHASE_EVENT_BUDGET)
        if len(kept) == kept.maxlen:
            self.dropped_events += 1
        kept.append(event)
