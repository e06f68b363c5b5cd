"""Report sections -> renderable figure data, backend-independent.

The renderers draw a :class:`FigureArtifact` — series, bars, badges,
truncation markers — and never look at report documents or expectation
specs directly.  This module is the only place the three inputs meet:

* the figure's reproduced table (one ``figures[]`` section of a
  ``report.json`` document);
* its :class:`~repro.obs.publish.figspecs.PublishSpec` (which columns
  become panels);
* the paper's reference curves from
  :func:`repro.obs.expectations.reference_curves`.

Everything here is pure and deterministic, so the tests can assert
series/badge counts without rendering a single pixel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..expectations import reference_curves
from .figspecs import PublishSpec
from .style import series_color

__all__ = [
    "Series",
    "Bar",
    "PanelData",
    "Badge",
    "FigureArtifact",
    "build_figure_artifact",
]


@dataclass
class Series:
    """One plotted line: points in data space plus identity."""

    label: str
    points: list[tuple[float, float]]
    color: str
    kind: str = "ours"  # "ours" | "paper"


@dataclass
class Bar:
    """One bar of a mode-comparison panel (optionally with a paper
    reference level drawn as a dashed marker)."""

    label: str
    value: float
    color: str
    ref: Optional[float] = None


@dataclass
class PanelData:
    """One panel: either line series over x, or labeled bars."""

    ylabel: str
    xlabel: str
    logx: bool = False
    logy: bool = False
    kind: str = "lines"  # "lines" | "bars"
    series: list[Series] = field(default_factory=list)
    bars: list[Bar] = field(default_factory=list)


@dataclass
class Badge:
    """One claim verdict rendered as a colored pass/fail chip."""

    status: str  # "pass" | "fail" | "skip"
    claim: str
    observed: str = ""

    @property
    def symbol(self) -> str:
        return {"pass": "✓", "fail": "✗", "skip": "–"}[
            self.status
        ]


@dataclass
class FigureArtifact:
    """Everything a backend needs to draw one output file."""

    name: str  # output file stem ("fig2", "trace_digest", ...)
    figure_id: str
    title: str
    panels: list[PanelData]
    badges: list[Badge] = field(default_factory=list)
    truncated: list[str] = field(default_factory=list)
    footnote: str = ""

    def badge_counts(self) -> dict[str, int]:
        return {
            "pass": sum(b.status == "pass" for b in self.badges),
            "fail": sum(b.status == "fail" for b in self.badges),
            "skip": sum(b.status == "skip" for b in self.badges),
        }


def _as_float(value: object) -> Optional[float]:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    return float(value)


def _column_index(headers: list, column: str) -> Optional[int]:
    try:
        return headers.index(column)
    except ValueError:
        return None


def _modes_in_order(rows: list) -> list[str]:
    modes: list[str] = []
    for row in rows:
        mode = str(row[0])
        if mode not in modes:
            modes.append(mode)
    return modes


def _line_panel(
    section: dict,
    spec: PublishSpec,
    panel_spec,
    reference: dict,
) -> PanelData:
    headers = section.get("headers", [])
    rows = section.get("rows", [])
    panel = PanelData(
        ylabel=panel_spec.ylabel,
        xlabel=spec.xlabel,
        logx=spec.logx,
        logy=panel_spec.logy,
    )
    if spec.column_series:
        # Mode-less table: selected columns become the series and the
        # first column is x (the model figure's flows sweep).
        for i, column in enumerate(
            spec.column_series + spec.reference_columns
        ):
            c_idx = _column_index(headers, column)
            if c_idx is None:
                continue
            points = []
            for row in rows:
                x = _as_float(row[0])
                y = _as_float(row[c_idx])
                if x is not None and y is not None:
                    points.append((x, y))
            if points:
                is_ref = column in spec.reference_columns
                panel.series.append(
                    Series(
                        label=column.replace("_gbps", "")
                        + (" (paper)" if is_ref else ""),
                        points=points,
                        color=series_color(column, i),
                        kind="paper" if is_ref else "ours",
                    )
                )
        return panel
    y_idx = _column_index(headers, panel_spec.y)
    if y_idx is None:
        return panel
    for i, mode in enumerate(_modes_in_order(rows)):
        points = []
        for row in rows:
            if str(row[0]) != mode:
                continue
            x = _as_float(row[1])
            y = _as_float(row[y_idx])
            if x is not None and y is not None:
                points.append((x, y))
        if points:
            panel.series.append(
                Series(
                    label=mode,
                    points=points,
                    color=series_color(mode, i),
                )
            )
    for i, (mode, points) in enumerate(
        sorted(reference.get(panel_spec.y, {}).items())
    ):
        numeric = [
            (float(x), float(y))
            for x, y in points
            if _as_float(x) is not None and _as_float(y) is not None
        ]
        if numeric:
            panel.series.append(
                Series(
                    label=f"{mode} (paper)",
                    points=numeric,
                    color=series_color(mode, i),
                    kind="paper",
                )
            )
    return panel


def _bars_panel(
    section: dict,
    spec: PublishSpec,
    panel_spec,
    reference: dict,
) -> PanelData:
    headers = section.get("headers", [])
    rows = section.get("rows", [])
    panel = PanelData(
        ylabel=panel_spec.ylabel,
        xlabel=spec.xlabel,
        kind="bars",
        logy=panel_spec.logy,
    )
    y_idx = _column_index(headers, panel_spec.y)
    if y_idx is None:
        return panel
    refs = reference.get(panel_spec.y, {})
    for i, mode in enumerate(_modes_in_order(rows)):
        for row in rows:
            if str(row[0]) != mode:
                continue
            value = _as_float(row[y_idx])
            if value is None:
                continue
            ref_points = refs.get(mode, [])
            ref = ref_points[0][1] if ref_points else None
            panel.bars.append(
                Bar(
                    label=mode,
                    value=value,
                    color=series_color(mode, i),
                    ref=ref,
                )
            )
            break  # one bar per mode (single-x figure)
    return panel


def build_figure_artifact(
    section: dict, spec: PublishSpec, footnote: str = ""
) -> FigureArtifact:
    """One report ``figures[]`` section -> a renderable artifact."""
    reference = reference_curves(spec.figure)
    build = _bars_panel if spec.bars_by_mode else _line_panel
    panels = [
        build(section, spec, panel_spec, reference)
        for panel_spec in spec.panels
    ]
    badges = [
        Badge(
            status=claim.get("status", "skip"),
            claim=claim.get("claim", "?"),
            observed=claim.get("observed", ""),
        )
        for claim in section.get("claims", [])
    ]
    return FigureArtifact(
        name=spec.figure,
        figure_id=section.get("figure_id", spec.figure),
        title=section.get("title", ""),
        panels=panels,
        badges=badges,
        truncated=list(section.get("truncated_phases", [])),
        footnote=footnote,
    )
