"""Dependency-free SVG renderer for publication artifacts.

The repo carries no plotting dependency, so the publish pipeline draws
every figure with this small hand-rolled renderer and works anywhere.
It draws a :class:`~repro.obs.publish.figdata.FigureArtifact`: one row
of panels, series polylines (ours solid, paper dashed),
mode-comparison bars with reference levels, a claim-verdict badge
strip and truncation markers.

Every element carries a CSS class (``series-ours``, ``badge-fail``,
``bar`` ...) so the tests assert structure by parsing the XML instead
of comparing pixels.
"""

from __future__ import annotations

import math
from typing import Callable, Optional
from xml.sax.saxutils import escape

from .figdata import FigureArtifact, PanelData
from .style import (
    FAIL_COLOR,
    FONT_FAMILY,
    FONT_SIZE,
    GRID,
    PASS_COLOR,
    SKIP_COLOR,
    SURFACE,
    TEXT,
    TEXT_MUTED,
    WARN_COLOR,
)

__all__ = ["render_figure_svg"]

# Panel geometry (px), sized so the SVG stays readable at its natural
# size in the HTML index.
PLOT_W = 300
PLOT_H = 215
MARGIN_L = 58
MARGIN_R = 14
MARGIN_B = 46
PANEL_GAP = 18
HEADER_H = 64  # title + badges + legend
FOOTER_H = 22


def _fmt_num(value: float) -> str:
    """Short tick label: SI-style for large, trimmed float for small."""
    if value != 0 and abs(value) >= 1024 and float(value).is_integer():
        for unit, scale in (("M", 1024 * 1024), ("K", 1024)):
            if abs(value) >= scale and (value / scale).is_integer():
                return f"{int(value / scale)}{unit}"
    if abs(value) >= 1000:
        return f"{value:,.0f}"
    if value == int(value):
        return str(int(value))
    if abs(value) >= 1:
        return f"{value:.3g}"
    return f"{value:.2g}"


def _nice_ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    """Nice round tick positions covering [lo, hi]."""
    if hi <= lo:
        hi = lo + (abs(lo) if lo else 1.0)
    span = hi - lo
    raw_step = span / max(n - 1, 1)
    magnitude = 10 ** math.floor(math.log10(raw_step))
    for mult in (1, 2, 2.5, 5, 10):
        step = mult * magnitude
        if step >= raw_step:
            break
    start = math.floor(lo / step) * step
    ticks = []
    tick = start
    while tick <= hi + step * 0.51:
        if tick >= lo - step * 0.51:
            ticks.append(round(tick, 10))
        tick += step
    return ticks


def _log_ticks(lo: float, hi: float) -> list[float]:
    """Decade ticks spanning [lo, hi] (clamped positive)."""
    lo = max(lo, 1e-12)
    hi = max(hi, lo * 10.0)
    ticks = []
    exp = math.floor(math.log10(lo))
    while 10.0**exp <= hi * 1.001:
        if 10.0**exp >= lo * 0.999:
            ticks.append(10.0**exp)
        exp += 1
    return ticks or [lo, hi]


def _scale(
    lo: float, hi: float, out: float, log: bool
) -> Callable[[float], float]:
    """Data value -> pixel offset in [0, out]."""
    if log:
        lo = max(lo, 1e-12)
        hi = max(hi, lo * 10)
        llo, lhi = math.log10(lo), math.log10(hi)
        span = lhi - llo or 1.0
        return lambda v: (
            (math.log10(max(v, 1e-12)) - llo) / span * out
        )
    span = hi - lo or 1.0
    return lambda v: (v - lo) / span * out


def _panel_limits(
    panel: PanelData,
) -> tuple[float, float, float, float]:
    xs: list[float] = []
    ys: list[float] = []
    for series in panel.series:
        for x, y in series.points:
            xs.append(x)
            ys.append(y)
    if not xs:
        xs = [0.0, 1.0]
    if not ys:
        ys = [0.0, 1.0]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if not panel.logy:
        y_lo = min(y_lo, 0.0)
        y_hi = y_hi + 0.08 * (y_hi - y_lo or 1.0)
    else:
        y_lo = max(y_lo, 1e-12) / 1.5
        y_hi = max(y_hi, y_lo * 10.0) * 1.5
    if panel.logx:
        x_lo, x_hi = x_lo / 1.1, x_hi * 1.1
    else:
        pad = 0.04 * (x_hi - x_lo or 1.0)
        x_lo, x_hi = x_lo - pad, x_hi + pad
    return x_lo, x_hi, y_lo, y_hi


class _Svg:
    """A tiny element-list builder; keeps the renderer linear."""

    def __init__(self) -> None:
        self.parts: list[str] = []

    def add(self, element: str) -> None:
        self.parts.append(element)

    def text(
        self,
        x: float,
        y: float,
        content: str,
        size: int,
        color: str = TEXT,
        anchor: str = "start",
        cls: str = "",
        family: str = "serif",
        rotate: Optional[float] = None,
    ) -> None:
        transform = (
            f' transform="rotate({rotate} {x:.1f} {y:.1f})"'
            if rotate is not None
            else ""
        )
        cls_attr = f' class="{cls}"' if cls else ""
        self.add(
            f'<text x="{x:.1f}" y="{y:.1f}" font-size="{size}"'
            f' font-family="{family}" fill="{color}"'
            f' text-anchor="{anchor}"{cls_attr}{transform}>'
            f"{escape(content)}</text>"
        )


def _draw_axes(
    svg: _Svg,
    origin: tuple[float, float],
    panel: PanelData,
    limits: tuple[float, float, float, float],
) -> tuple[Callable[[float], float], Callable[[float], float]]:
    """Grid, ticks and labels; returns the (px, py) transforms."""
    ox, oy = origin  # top-left of the plot rect
    x_lo, x_hi, y_lo, y_hi = limits
    sx = _scale(x_lo, x_hi, PLOT_W, panel.logx)
    sy = _scale(y_lo, y_hi, PLOT_H, panel.logy)

    def px(v: float) -> float:
        return ox + sx(v)

    def py(v: float) -> float:
        return oy + PLOT_H - sy(v)

    font = FONT_FAMILY
    small = FONT_SIZE - 2
    svg.add(
        f'<rect x="{ox}" y="{oy}" width="{PLOT_W}" height="{PLOT_H}"'
        f' fill="{SURFACE}" stroke="{GRID}" class="panel"/>'
    )
    if panel.kind == "bars":
        y_ticks = (
            _log_ticks(y_lo, y_hi)
            if panel.logy
            else _nice_ticks(y_lo, y_hi)
        )
        for tick in y_ticks:
            y = py(tick)
            svg.add(
                f'<line x1="{ox}" y1="{y:.1f}" x2="{ox + PLOT_W}"'
                f' y2="{y:.1f}" stroke="{GRID}" stroke-width="1"/>'
            )
            svg.text(
                ox - 6, y + small / 3, _fmt_num(tick), small,
                TEXT_MUTED, "end", family=font,
            )
    else:
        data_xs = sorted(
            {
                x
                for series in panel.series
                for x, _ in series.points
            }
        )
        x_ticks = (
            data_xs
            if 0 < len(data_xs) <= 7
            else (
                _log_ticks(x_lo, x_hi)
                if panel.logx
                else _nice_ticks(x_lo, x_hi)
            )
        )
        y_ticks = (
            _log_ticks(y_lo, y_hi)
            if panel.logy
            else _nice_ticks(y_lo, y_hi)
        )
        for tick in x_ticks:
            x = px(tick)
            svg.add(
                f'<line x1="{x:.1f}" y1="{oy}" x2="{x:.1f}"'
                f' y2="{oy + PLOT_H}" stroke="{GRID}"'
                ' stroke-width="1"/>'
            )
            svg.text(
                x, oy + PLOT_H + small + 4, _fmt_num(tick), small,
                TEXT_MUTED, "middle", family=font,
            )
        for tick in y_ticks:
            y = py(tick)
            svg.add(
                f'<line x1="{ox}" y1="{y:.1f}" x2="{ox + PLOT_W}"'
                f' y2="{y:.1f}" stroke="{GRID}" stroke-width="1"/>'
            )
            svg.text(
                ox - 6, y + small / 3, _fmt_num(tick), small,
                TEXT_MUTED, "end", family=font,
            )
    # Axis titles.
    svg.text(
        ox + PLOT_W / 2, oy + PLOT_H + MARGIN_B - 8, panel.xlabel,
        small, TEXT_MUTED, "middle", family=font, cls="xlabel",
    )
    svg.text(
        ox - MARGIN_L + 12, oy + PLOT_H / 2, panel.ylabel, small,
        TEXT_MUTED, "middle", family=font, cls="ylabel", rotate=-90,
    )
    return px, py


def _draw_lines(
    svg: _Svg, panel: PanelData, px, py
) -> None:
    for series in panel.series:
        points = sorted(series.points)
        coords = " ".join(
            f"{px(x):.1f},{py(y):.1f}" for x, y in points
        )
        dash = ' stroke-dasharray="6,4"' if series.kind == "paper" else ""
        cls = f"series-{series.kind}"
        if len(points) > 1:
            svg.add(
                f'<polyline points="{coords}" fill="none"'
                f' stroke="{series.color}" stroke-width="2"{dash}'
                f' class="{cls}"><title>{escape(series.label)}'
                "</title></polyline>"
            )
        for x, y in points:
            if series.kind == "paper":
                svg.add(
                    f'<rect x="{px(x) - 3:.1f}" y="{py(y) - 3:.1f}"'
                    f' width="6" height="6" fill="{SURFACE}"'
                    f' stroke="{series.color}" stroke-width="1.5"'
                    f' class="{cls}-marker"/>'
                )
            else:
                svg.add(
                    f'<circle cx="{px(x):.1f}" cy="{py(y):.1f}" r="3.5"'
                    f' fill="{series.color}" stroke="{SURFACE}"'
                    f' stroke-width="1" class="{cls}-marker"/>'
                )


def _draw_bars(
    svg: _Svg,
    panel: PanelData,
    origin: tuple[float, float],
    py,
) -> None:
    ox, oy = origin
    bars = panel.bars
    if not bars:
        return
    small = FONT_SIZE - 2
    font = FONT_FAMILY
    slot = PLOT_W / len(bars)
    width = min(slot * 0.62, 54.0)
    base = py(0.0)
    for i, bar in enumerate(bars):
        x = ox + slot * (i + 0.5) - width / 2
        top = py(bar.value)
        height = max(base - top, 0.5)
        svg.add(
            f'<rect x="{x:.1f}" y="{top:.1f}" width="{width:.1f}"'
            f' height="{height:.1f}" rx="4" fill="{bar.color}"'
            f' stroke="{SURFACE}" stroke-width="2" class="bar">'
            f"<title>{escape(bar.label)}</title></rect>"
        )
        svg.text(
            x + width / 2, top - 4, _fmt_num(bar.value), small, TEXT,
            "middle", family=font, cls="bar-value",
        )
        svg.text(
            x + width / 2, base + small + 4, bar.label, small,
            TEXT_MUTED, "middle", family=font, cls="bar-label",
        )
        if bar.ref is not None:
            ref_y = py(bar.ref)
            svg.add(
                f'<line x1="{x - 4:.1f}" y1="{ref_y:.1f}"'
                f' x2="{x + width + 4:.1f}" y2="{ref_y:.1f}"'
                f' stroke="{TEXT}" stroke-width="1.5"'
                ' stroke-dasharray="5,3" class="bar-ref"/>'
            )


def _bars_limits(panel: PanelData) -> tuple[float, float, float, float]:
    values = [b.value for b in panel.bars] + [
        b.ref for b in panel.bars if b.ref is not None
    ]
    hi = max(values, default=1.0)
    return 0.0, 1.0, 0.0, hi * 1.15 or 1.0


def _badge_strip(svg: _Svg, artifact: FigureArtifact, y: float) -> None:
    """Claim-verdict summary chips + the first failing claims."""
    font = FONT_FAMILY
    small = FONT_SIZE - 2
    counts = artifact.badge_counts()
    x = 10.0
    chips = [
        (f"{counts['pass']} pass", PASS_COLOR, "badge-pass"),
        (f"{counts['fail']} fail", FAIL_COLOR, "badge-fail"),
    ]
    if counts["skip"]:
        chips.append((f"{counts['skip']} skipped", SKIP_COLOR,
                      "badge-skip"))
    for text, color, cls in chips:
        width = 8 + len(text) * (small * 0.62)
        svg.add(
            f'<rect x="{x:.1f}" y="{y - small - 2:.1f}"'
            f' width="{width:.1f}" height="{small + 7}" rx="4"'
            f' fill="none" stroke="{color}" stroke-width="1.2"'
            f' class="{cls}"/>'
        )
        svg.text(
            x + width / 2, y, text, small, color, "middle",
            family=font,
        )
        x += width + 8
    failing = [b for b in artifact.badges if b.status == "fail"]
    if failing:
        preview = "; ".join(b.claim for b in failing[:2])
        if len(preview) > 88:
            preview = preview[:85] + "..."
        svg.text(
            x + 6, y, f"✗ {preview}", small, FAIL_COLOR,
            family=font, cls="badge-fail-detail",
        )


def render_figure_svg(artifact: FigureArtifact, path: str) -> dict:
    """Render one artifact to an SVG file; returns structure counts."""
    font = FONT_FAMILY
    n_panels = max(len(artifact.panels), 1)
    width = (
        MARGIN_L + PLOT_W + MARGIN_R
    ) * n_panels + PANEL_GAP * (n_panels - 1)
    height = HEADER_H + PLOT_H + MARGIN_B + FOOTER_H
    svg = _Svg()
    svg.add(
        f'<rect x="0" y="0" width="{width}" height="{height}"'
        f' fill="{SURFACE}"/>'
    )
    title = f"{artifact.figure_id} — {artifact.title}"
    svg.text(
        10, FONT_SIZE + 8, title, FONT_SIZE + 3, TEXT,
        family=font, cls="title",
    )
    if artifact.badges:
        _badge_strip(svg, artifact, HEADER_H - 26.0)
    # Legend: unique (label, color, kind) across panels, one row.
    seen: list[tuple[str, str, str]] = []
    for panel in artifact.panels:
        for series in panel.series:
            key = (series.label, series.color, series.kind)
            if key not in seen:
                seen.append(key)
    x = 10.0
    small = FONT_SIZE - 2
    legend_y = HEADER_H - 8.0
    for label, color, kind in seen:
        dash = ' stroke-dasharray="6,4"' if kind == "paper" else ""
        svg.add(
            f'<line x1="{x:.1f}" y1="{legend_y - small / 3:.1f}"'
            f' x2="{x + 18:.1f}" y2="{legend_y - small / 3:.1f}"'
            f' stroke="{color}" stroke-width="2"{dash}'
            ' class="legend-sample"/>'
        )
        svg.text(
            x + 22, legend_y, label, small, TEXT_MUTED, family=font,
            cls="legend-label",
        )
        x += 26 + len(label) * (small * 0.62)
    counts = {"panels": 0, "series": 0, "bars": 0,
              "badges": len(artifact.badges)}
    for i, panel in enumerate(artifact.panels):
        ox = MARGIN_L + i * (MARGIN_L + PLOT_W + MARGIN_R + PANEL_GAP)
        oy = HEADER_H
        limits = (
            _bars_limits(panel)
            if panel.kind == "bars"
            else _panel_limits(panel)
        )
        px, py = _draw_axes(svg, (ox, oy), panel, limits)
        if panel.kind == "bars":
            _draw_bars(svg, panel, (ox, oy), py)
            counts["bars"] += len(panel.bars)
        else:
            _draw_lines(svg, panel, px, py)
            counts["series"] += len(panel.series)
        counts["panels"] += 1
    footer_y = height - 8.0
    if artifact.truncated:
        labels = ", ".join(artifact.truncated[:3])
        svg.text(
            10, footer_y, f"⚠ series truncated at sample cap: {labels}",
            small, WARN_COLOR, family=font, cls="truncated",
        )
    elif artifact.footnote:
        svg.text(
            10, footer_y, artifact.footnote, small, TEXT_MUTED,
            family=font, cls="footnote",
        )
    body = "\n".join(svg.parts)
    document = (
        '<svg xmlns="http://www.w3.org/2000/svg"'
        f' width="{width}" height="{height}"'
        f' viewBox="0 0 {width} {height}" role="img"'
        f' aria-label="{escape(title)}">\n{body}\n</svg>\n'
    )
    with open(path, "w") as handle:
        handle.write(document)
    return counts
