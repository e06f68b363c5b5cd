"""Stack-timed spans around calls into the simulator's layers.

A span is one call of a wrapped function, timed with
``time.perf_counter``.  Per span name the recorder keeps

* ``count``   -- calls;
* ``total_s`` -- wall time of the *outermost* calls only, so a
  recursive or re-entrant name (a driver override calling its base
  class, ``alloc_page`` calling ``alloc_page_with_chunk``) is not
  billed twice;
* ``self_s``  -- duration minus the durations of the spans it directly
  contains.  Self time is exact under nesting and recursion alike, so
  the self times of all spans inside a span sum to its duration.

A span's *layer* is its name up to the first dot.  Per layer the
recorder keeps the time of calls that are outermost in that layer, and
the part of it spent while the span named ``within`` was open (how
much IOVA-allocator time is host set-up, i.e. allocator aging).

Everything is aggregated in memory.  Names listed as ``coarse`` are
also kept as Chrome-trace complete events, names listed as ``keep``
keep every duration, and names listed as ``checked`` record
``(duration, sum of self times inside)`` so the accounting can be
verified span by span.
"""

from __future__ import annotations

import functools
import os
import time
from typing import Callable, Iterable, Optional

__all__ = ["SpanRecorder", "merge_states"]


class SpanRecorder:
    """In-memory span aggregation plus the patches that feed it."""

    def __init__(
        self,
        coarse: Iterable[str] = (),
        keep: Iterable[str] = (),
        checked: Iterable[str] = (),
        within: Optional[str] = None,
        epoch: float = 0.0,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.coarse = frozenset(coarse)
        self.keep = frozenset(keep)
        self.checked = frozenset(checked)
        self.within = within
        self.epoch = epoch
        self.clock = clock
        # name -> [count, total_s, self_s]; layer -> [total_s, within_s]
        self.stats: dict[str, list] = {}
        self.layers: dict[str, list] = {}
        self.kept: dict[str, list[float]] = {}
        self.checks: list[tuple[float, float]] = []
        self.events: list[dict] = []
        self.counters: dict[str, float] = {}
        self._stack: list[list[float]] = []
        self._depth: dict = {}

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped as span ``name`` (signature and name kept)."""
        layer = name.split(".", 1)[0]
        layer_key = ("layer", layer)
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        layer_stat = self.layers.setdefault(layer, [0.0, 0.0])
        kept = self.kept.setdefault(name, []) if name in self.keep else None
        checks = self.checks if name in self.checked else None
        events = self.events if name in self.coarse else None
        stack = self._stack
        depth = self._depth
        within = self.within
        clock = self.clock
        epoch = self.epoch

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [0.0, 0.0]  # direct-child time, self time inside
            stack.append(frame)
            name_depth = depth.get(name, 0)
            layer_depth = depth.get(layer_key, 0)
            depth[name] = name_depth + 1
            depth[layer_key] = layer_depth + 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                depth[name] = name_depth
                depth[layer_key] = layer_depth
                own = duration - frame[0]
                stat[0] += 1
                stat[2] += own
                if not name_depth:
                    stat[1] += duration
                if not layer_depth:
                    layer_stat[0] += duration
                    if depth.get(within):
                        layer_stat[1] += duration
                if stack:
                    parent = stack[-1]
                    parent[0] += duration
                    parent[1] += own + frame[1]
                if kept is not None:
                    kept.append(duration)
                if checks is not None:
                    checks.append((duration, own + frame[1]))
                if events is not None:
                    events.append(
                        {
                            "name": name,
                            "cat": layer,
                            "ph": "X",
                            "ts": (start - epoch) * 1e6,
                            "dur": duration * 1e6,
                            "pid": os.getpid(),
                            "tid": 0,
                        }
                    )

        return span

    def patch(self, owner: object, attr: str, name: str) -> None:
        """Replace ``owner.attr`` (or ``owner[attr]``) with its span."""
        if isinstance(owner, dict):
            owner[attr] = self.wrap(name, owner[attr])
        elif isinstance(owner, type):
            setattr(owner, attr, self.wrap(name, owner.__dict__[attr]))
        else:
            setattr(owner, attr, self.wrap(name, getattr(owner, attr)))

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def add(self, counter: str, value: float) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + value

    def state(self) -> dict:
        """Everything recorded, as JSON-ready data."""
        return {
            "stats": {name: list(stat) for name, stat in self.stats.items()},
            "layers": {name: list(v) for name, v in self.layers.items()},
            "kept": {name: list(v) for name, v in self.kept.items()},
            "checks": [list(check) for check in self.checks],
            "events": list(self.events),
            "counters": dict(self.counters),
        }


def merge_states(states: Iterable[dict]) -> dict:
    """Sum recorder states from several processes or runs."""
    merged: dict = {
        "stats": {},
        "layers": {},
        "kept": {},
        "checks": [],
        "events": [],
        "counters": {},
    }
    for state in states:
        for name, (count, total, own) in state["stats"].items():
            stat = merged["stats"].setdefault(name, [0, 0.0, 0.0])
            stat[0] += count
            stat[1] += total
            stat[2] += own
        for name, (total, within) in state["layers"].items():
            layer = merged["layers"].setdefault(name, [0.0, 0.0])
            layer[0] += total
            layer[1] += within
        for name, values in state["kept"].items():
            merged["kept"].setdefault(name, []).extend(values)
        merged["checks"].extend(state["checks"])
        merged["events"].extend(state["events"])
        for name, value in state["counters"].items():
            merged["counters"][name] = merged["counters"].get(name, 0) + value
    return merged
