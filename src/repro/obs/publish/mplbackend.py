"""Matplotlib (Agg) renderer for publication artifacts.

This backend is optional: matplotlib ships via the ``publish`` extra
(``pip install 'repro[publish]'``) and is the only way to emit
``png``/``pdf`` output.  :func:`have_matplotlib` is the gate — the CLI
checks it before dispatching and exits 2 with an install hint when the
user asks for a raster/vector format without the dependency.  All
imports happen lazily inside functions so merely importing the publish
package never touches matplotlib.

The drawing mirrors :mod:`repro.obs.publish.svgbackend` — same
palette, same panel layout, same ours-solid / paper-dashed encoding —
so the two backends are interchangeable in the HTML index.
"""

from __future__ import annotations

from .figdata import FigureArtifact, PanelData
from .style import (
    FAIL_COLOR,
    GRID,
    PASS_COLOR,
    SKIP_COLOR,
    STYLES,
    SURFACE,
    TEXT,
    TEXT_MUTED,
    WARN_COLOR,
)

__all__ = ["have_matplotlib", "render_figure_mpl"]


def have_matplotlib() -> bool:
    """True when matplotlib is importable (the ``publish`` extra)."""
    try:
        import matplotlib  # noqa: F401
    except ImportError:
        return False
    return True


def _style_axes(ax, panel: PanelData, font_size: int) -> None:
    ax.set_facecolor(SURFACE)
    for side in ("top", "right"):
        ax.spines[side].set_visible(False)
    for side in ("left", "bottom"):
        ax.spines[side].set_color(GRID)
    ax.tick_params(colors=TEXT_MUTED, labelsize=font_size - 2)
    ax.grid(True, color=GRID, linewidth=0.8)
    ax.set_axisbelow(True)
    ax.set_xlabel(panel.xlabel, fontsize=font_size - 1,
                  color=TEXT_MUTED)
    ax.set_ylabel(panel.ylabel, fontsize=font_size - 1,
                  color=TEXT_MUTED)


def _draw_panel(ax, panel: PanelData, font_size: int) -> None:
    if panel.kind == "bars":
        labels = [bar.label for bar in panel.bars]
        xs = range(len(panel.bars))
        for x, bar in zip(xs, panel.bars):
            ax.bar(
                x, bar.value, width=0.62, color=bar.color,
                edgecolor=SURFACE, linewidth=1.5, zorder=3,
            )
            ax.annotate(
                f"{bar.value:g}", (x, bar.value),
                textcoords="offset points", xytext=(0, 3),
                ha="center", fontsize=font_size - 2, color=TEXT,
            )
            if bar.ref is not None:
                ax.hlines(
                    bar.ref, x - 0.42, x + 0.42, colors=TEXT,
                    linestyles=(0, (5, 3)), linewidth=1.4, zorder=4,
                )
        ax.set_xticks(list(xs), labels)
        if panel.logy:
            ax.set_yscale("log")
        return
    for series in panel.series:
        points = sorted(series.points)
        xs = [p[0] for p in points]
        ys = [p[1] for p in points]
        if series.kind == "paper":
            ax.plot(
                xs, ys, color=series.color, linewidth=1.8,
                linestyle=(0, (6, 4)), marker="s", markersize=5,
                markerfacecolor=SURFACE,
                markeredgecolor=series.color, label=series.label,
                zorder=3,
            )
        else:
            ax.plot(
                xs, ys, color=series.color, linewidth=2.0,
                marker="o", markersize=5,
                markeredgecolor=SURFACE, markeredgewidth=0.8,
                label=series.label, zorder=4,
            )
    if panel.logx:
        ax.set_xscale("log", base=2)
        data_xs = sorted(
            {x for series in panel.series for x, _ in series.points}
        )
        if 0 < len(data_xs) <= 7:
            ax.set_xticks(data_xs)
            ax.set_xticklabels([_si(x) for x in data_xs])
            ax.minorticks_off()
    if panel.logy:
        ax.set_yscale("log")
    else:
        ax.set_ylim(bottom=0)


def _si(value: float) -> str:
    if value >= 1024 and (value / 1024).is_integer():
        if value >= 1024 * 1024 and (value / 1024 / 1024).is_integer():
            return f"{int(value / 1024 / 1024)}M"
        return f"{int(value / 1024)}K"
    return f"{value:g}"


def render_figure_mpl(
    artifact: FigureArtifact, style_name: str, path: str
) -> dict:
    """Render one artifact with matplotlib/Agg; returns counts."""
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    style = STYLES[style_name]
    n_panels = max(len(artifact.panels), 1)
    fig, axes = plt.subplots(
        1,
        n_panels,
        figsize=(style.panel_width * n_panels, style.panel_height),
        squeeze=False,
    )
    fig.patch.set_facecolor(SURFACE)
    counts = {"panels": 0, "series": 0, "bars": 0,
              "badges": len(artifact.badges)}
    with plt.rc_context(
        {
            "font.family": style.font_family,
            "font.size": style.font_size,
        }
    ):
        for ax, panel in zip(axes[0], artifact.panels):
            _style_axes(ax, panel, style.font_size)
            _draw_panel(ax, panel, style.font_size)
            counts["panels"] += 1
            counts["series"] += len(panel.series)
            counts["bars"] += len(panel.bars)
        handles, labels = axes[0][0].get_legend_handles_labels()
        if handles:
            fig.legend(
                handles,
                labels,
                loc="lower center",
                ncol=min(len(labels), 5),
                frameon=False,
                fontsize=style.font_size - 2,
                bbox_to_anchor=(0.5, -0.02),
            )
        badge = _badge_text(artifact)
        title = f"{artifact.figure_id} — {artifact.title}"
        fig.suptitle(
            title, fontsize=style.font_size + 1, color=TEXT, x=0.01,
            ha="left",
        )
        if badge:
            fig.text(
                0.99, 0.99, badge[0], fontsize=style.font_size - 2,
                color=badge[1], ha="right", va="top",
            )
        if artifact.truncated:
            names = ", ".join(artifact.truncated[:3])
            fig.text(
                0.01, 0.0,
                f"⚠ series truncated at sample cap: {names}",
                fontsize=style.font_size - 2, color=WARN_COLOR,
                ha="left", va="bottom",
            )
        fig.tight_layout(rect=(0, 0.06, 1, 0.93))
        fig.savefig(
            path, dpi=style.save_dpi, facecolor=SURFACE,
            bbox_inches="tight",
        )
    plt.close(fig)
    return counts


def _badge_text(artifact: FigureArtifact):
    if not artifact.badges:
        return None
    counts = artifact.badge_counts()
    if counts["fail"]:
        return (
            f"✗ {counts['fail']} fail / {counts['pass']} pass",
            FAIL_COLOR,
        )
    if counts["pass"]:
        suffix = (
            f" ({counts['skip']} skipped)" if counts["skip"] else ""
        )
        return (f"✓ {counts['pass']} pass{suffix}", PASS_COLOR)
    return (f"– {counts['skip']} skipped", SKIP_COLOR)
