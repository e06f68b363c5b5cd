"""SpanTracer trace digest: histograms + critical path from a trace.

The simulator's :class:`~repro.obs.tracer.SpanTracer` emits Chrome
``traceEvents`` JSON (``ph == "X"`` complete events with ``ts``/``dur``
in microseconds).  This module reduces a trace to a publishable
digest: per-span-kind duration statistics, half-decade log-scale
duration histograms, and a critical-path table ranked by total time —
rendered as one summary figure plus an HTML table.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .figdata import FigureArtifact, Bar, PanelData, Series
from .style import series_color

__all__ = [
    "SpanKindStats",
    "TraceDigest",
    "digest_trace",
    "load_trace",
    "critical_path_rows",
    "digest_artifact",
]

# Histograms bucket durations into half-decade log10 bins; bin k
# covers [10^(k/2), 10^((k+1)/2)) microseconds.
_MIN_DUR_US = 1e-3


@dataclass
class SpanKindStats:
    """Aggregate duration stats for one span kind (event name)."""

    kind: str
    count: int
    total_us: float
    mean_us: float
    p50_us: float
    p95_us: float
    max_us: float
    share: float  # fraction of summed span time
    histogram: dict[int, int] = field(default_factory=dict)


@dataclass
class TraceDigest:
    """Everything extracted from one trace document."""

    kinds: list[SpanKindStats]  # sorted by total_us desc
    span_count: int
    total_us: float
    instant_count: int
    tracks: list[str]
    dropped_events: int = 0  # events past the tracer's per-phase budget


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile on an already-sorted list."""
    if not sorted_values:
        return 0.0
    rank = max(
        0, min(len(sorted_values) - 1,
               math.ceil(q * len(sorted_values)) - 1)
    )
    return sorted_values[rank]


def _bin_index(dur_us: float) -> int:
    return math.floor(2.0 * math.log10(max(dur_us, _MIN_DUR_US)))


def bin_center_us(index: int) -> float:
    return 10.0 ** ((index + 0.5) / 2.0)


def load_trace(path: str) -> dict:
    with open(path) as handle:
        doc = json.load(handle)
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        raise ValueError(
            f"{path}: not a Chrome trace document "
            "(missing traceEvents)"
        )
    return doc


def digest_trace(doc: dict) -> TraceDigest:
    """Reduce a Chrome-trace document to per-kind statistics."""
    durations: dict[str, list[float]] = {}
    tracks: list[str] = []
    instant_count = 0
    for event in doc.get("traceEvents", []):
        if not isinstance(event, dict):
            continue
        phase = event.get("ph")
        if phase == "i":
            instant_count += 1
            continue
        if phase != "X":
            continue
        name = str(event.get("name", "?"))
        dur = event.get("dur")
        if isinstance(dur, bool) or not isinstance(
            dur, (int, float)
        ):
            continue
        durations.setdefault(name, []).append(float(dur))
        track = str(event.get("tid", ""))
        if track and track not in tracks:
            tracks.append(track)
    total_us = sum(sum(values) for values in durations.values())
    kinds: list[SpanKindStats] = []
    for name, values in durations.items():
        values.sort()
        kind_total = sum(values)
        histogram: dict[int, int] = {}
        for value in values:
            idx = _bin_index(value)
            histogram[idx] = histogram.get(idx, 0) + 1
        kinds.append(
            SpanKindStats(
                kind=name,
                count=len(values),
                total_us=kind_total,
                mean_us=kind_total / len(values),
                p50_us=_percentile(values, 0.50),
                p95_us=_percentile(values, 0.95),
                max_us=values[-1],
                share=kind_total / total_us if total_us else 0.0,
                histogram=histogram,
            )
        )
    kinds.sort(key=lambda k: (-k.total_us, k.kind))
    return TraceDigest(
        kinds=kinds,
        span_count=sum(k.count for k in kinds),
        total_us=total_us,
        instant_count=instant_count,
        tracks=sorted(tracks),
        dropped_events=int(
            (doc.get("otherData") or {}).get("dropped_events", 0)
        ),
    )


def critical_path_rows(
    digest: TraceDigest, limit: int = 12
) -> list[list]:
    """Critical-path table: span kinds ranked by total time."""
    rows: list[list] = []
    for stats in digest.kinds[:limit]:
        rows.append(
            [
                stats.kind,
                stats.count,
                round(stats.total_us, 1),
                round(stats.share * 100.0, 1),
                round(stats.mean_us, 2),
                round(stats.p50_us, 2),
                round(stats.p95_us, 2),
                round(stats.max_us, 2),
            ]
        )
    return rows


CRITICAL_PATH_HEADERS = [
    "span kind", "count", "total us", "share %", "mean us",
    "p50 us", "p95 us", "max us",
]


def digest_artifact(
    digest: TraceDigest, top: int = 5
) -> FigureArtifact:
    """The one-figure trace summary: time-by-kind bars + duration
    histograms (half-decade bins, log x) for the top kinds."""
    top_kinds = digest.kinds[:top]
    bars_panel = PanelData(
        ylabel="total span time (us)",
        xlabel="span kind",
        kind="bars",
    )
    for i, stats in enumerate(top_kinds):
        bars_panel.bars.append(
            Bar(
                label=stats.kind,
                value=round(stats.total_us, 1),
                color=series_color(stats.kind, i),
            )
        )
    hist_panel = PanelData(
        ylabel="span count",
        xlabel="span duration (us, half-decade bins)",
        logx=True,
    )
    for i, stats in enumerate(top_kinds):
        points = [
            (bin_center_us(idx), float(count))
            for idx, count in sorted(stats.histogram.items())
        ]
        if points:
            hist_panel.series.append(
                Series(
                    label=stats.kind,
                    points=points,
                    color=series_color(stats.kind, i),
                )
            )
    dropped = len(digest.kinds) - len(top_kinds)
    footnote = (
        f"{digest.span_count} spans, {len(digest.kinds)} kinds, "
        f"{digest.total_us:.0f} us total"
        + (f"; top {top} kinds shown, {dropped} omitted"
           if dropped > 0 else "")
    )
    return FigureArtifact(
        name="trace_digest",
        figure_id="Trace digest",
        title="span time by kind and duration distribution",
        panels=[bars_panel, hist_panel],
        footnote=footnote,
    )
