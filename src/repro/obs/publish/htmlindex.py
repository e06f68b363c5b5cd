"""The browsable artifact index: ``index.html``, stdlib-templated.

One self-contained page tying the published artifacts together:
provenance header, claim-summary stat tiles, one card per figure
(image + per-claim verdict table) and the trace-digest critical-path
table.  No web framework, no JavaScript dependency — ``html.escape``
plus f-strings, so the page works from ``file://`` and as a CI
artifact.

The claim tables double as the accessibility relief for the charts:
every figure's numbers are readable as text, and every verdict pairs
a glyph with its color.
"""

from __future__ import annotations

import html
from typing import Optional, Sequence

from .figdata import FigureArtifact
from .style import (
    FAIL_COLOR,
    GRID,
    PASS_COLOR,
    SKIP_COLOR,
    SURFACE,
    TEXT,
    TEXT_MUTED,
    WARN_COLOR,
)
from .tracedigest import (
    CRITICAL_PATH_HEADERS,
    TraceDigest,
    critical_path_rows,
)

__all__ = ["render_index"]

_CSS = f"""
body {{
  font-family: Georgia, 'Times New Roman', serif;
  background: {SURFACE}; color: {TEXT};
  margin: 0 auto; max-width: 1100px; padding: 24px;
}}
a {{ color: inherit; }}
h1 {{ font-size: 26px; margin-bottom: 4px; }}
h2 {{ font-size: 20px; margin-top: 36px;
     border-bottom: 1px solid {GRID}; padding-bottom: 6px; }}
.meta {{ color: {TEXT_MUTED}; font-size: 14px; }}
.meta code {{ font-size: 13px; }}
.tiles {{ display: flex; gap: 16px; margin: 18px 0; flex-wrap: wrap; }}
.tile {{
  border: 1px solid {GRID}; border-radius: 8px;
  padding: 10px 18px; min-width: 110px;
}}
.tile .num {{ font-size: 28px; font-weight: bold; }}
.tile .label {{ color: {TEXT_MUTED}; font-size: 13px; }}
.card {{
  border: 1px solid {GRID}; border-radius: 8px;
  padding: 16px; margin: 18px 0;
}}
.card img {{ max-width: 100%; height: auto; }}
.badges {{ margin: 6px 0; font-size: 14px; }}
.chip {{
  display: inline-block; border-radius: 4px; padding: 1px 8px;
  margin-right: 6px; border: 1px solid; font-size: 13px;
}}
.pass {{ color: {PASS_COLOR}; border-color: {PASS_COLOR}; }}
.fail {{ color: {FAIL_COLOR}; border-color: {FAIL_COLOR}; }}
.skip {{ color: {SKIP_COLOR}; border-color: {SKIP_COLOR}; }}
.warn {{ color: {WARN_COLOR}; }}
table {{ border-collapse: collapse; font-size: 13px; margin-top: 8px; }}
th, td {{
  border: 1px solid {GRID}; padding: 4px 10px; text-align: left;
}}
th {{ color: {TEXT_MUTED}; font-weight: normal; }}
details summary {{ cursor: pointer; color: {TEXT_MUTED};
                   font-size: 14px; margin-top: 8px; }}
"""


def _esc(value: object) -> str:
    return html.escape(str(value))


def _table(headers: Sequence, rows: Sequence[Sequence]) -> str:
    head = "".join(f"<th>{_esc(h)}</th>" for h in headers)
    body = "".join(
        "<tr>" + "".join(f"<td>{_esc(c)}</td>" for c in row) + "</tr>"
        for row in rows
    )
    return (
        f"<table><thead><tr>{head}</tr></thead>"
        f"<tbody>{body}</tbody></table>"
    )


def _claims_table(section: dict) -> str:
    claims = section.get("claims", [])
    if not claims:
        return ""
    rows = []
    for claim in claims:
        status = claim.get("status", "skip")
        symbol = {"pass": "✓", "fail": "✗"}.get(status, "–")
        rows.append(
            f"<tr><td class={status!r}>{symbol} {status}</td>"
            f"<td>{_esc(claim.get('claim', '?'))}</td>"
            f"<td>{_esc(claim.get('paper', ''))}</td>"
            f"<td>{_esc(claim.get('observed', ''))}</td></tr>"
        )
    return (
        "<details><summary>claims</summary><table><thead><tr>"
        "<th>verdict</th><th>claim</th><th>paper</th>"
        "<th>observed</th></tr></thead><tbody>"
        + "".join(rows)
        + "</tbody></table></details>"
    )


def _figure_card(
    section: dict, artifact: FigureArtifact, image: str
) -> str:
    counts = artifact.badge_counts()
    chips = [
        f'<span class="chip pass">✓ {counts["pass"]} pass</span>',
        f'<span class="chip fail">✗ {counts["fail"]} fail</span>',
    ]
    if counts["skip"]:
        chips.append(
            f'<span class="chip skip">– {counts["skip"]}'
            " skipped</span>"
        )
    truncated = ""
    if artifact.truncated:
        names = _esc(", ".join(artifact.truncated[:4]))
        truncated = (
            f'<div class="warn">⚠ series truncated at sample cap:'
            f" {names}</div>"
        )
    return (
        f'<div class="card" id="{_esc(artifact.name)}">'
        f"<h3>{_esc(artifact.figure_id)} — {_esc(artifact.title)}"
        "</h3>"
        f'<div class="badges">{"".join(chips)}</div>'
        f'{truncated}'
        f'<img src="{_esc(image)}" alt="{_esc(artifact.figure_id)}">'
        f"{_claims_table(section)}"
        "</div>"
    )


def render_index(
    *,
    report: dict,
    cards: list[tuple[dict, FigureArtifact, str]],
    trace_image: Optional[str],
    trace_digest: Optional[TraceDigest],
) -> str:
    """Assemble the full index page as a string."""
    manifest = report.get("provenance", {})
    summary = report.get("summary", {})
    sha = str(manifest.get("git_sha", "unknown"))
    parts = [
        "<!DOCTYPE html>",
        '<html lang="en"><head><meta charset="utf-8">',
        "<title>repro publish — figure gallery</title>",
        f"<style>{_CSS}</style></head><body>",
        "<h1>Fast &amp; Safe IO Memory Protection — "
        "reproduction gallery</h1>",
        '<p class="meta">generated by <code>repro publish</code> — '
        f"git sha <code>{_esc(sha[:12])}</code>, "
        f"scale <code>{_esc(manifest.get('scale', '?'))}</code>, "
        f"seed <code>{_esc(manifest.get('seed', '?'))}</code>, "
        f"config hash <code>"
        f"{_esc(manifest.get('config_hash', '?'))}</code></p>",
        '<div class="tiles">',
        f'<div class="tile"><div class="num">'
        f'{_esc(summary.get("claims", 0))}</div>'
        '<div class="label">paper claims</div></div>',
        f'<div class="tile"><div class="num pass">'
        f'{_esc(summary.get("passed", 0))}</div>'
        '<div class="label">pass</div></div>',
        f'<div class="tile"><div class="num fail">'
        f'{_esc(summary.get("failed", 0))}</div>'
        '<div class="label">fail</div></div>',
        f'<div class="tile"><div class="num skip">'
        f'{_esc(summary.get("skipped", 0))}</div>'
        '<div class="label">skipped</div></div>',
        f'<div class="tile"><div class="num">{len(cards)}</div>'
        '<div class="label">figures</div></div>',
        "</div>",
        "<h2>Figures</h2>",
        '<p class="meta">solid lines: this reproduction; dashed '
        "lines with square markers: the paper's reported curves "
        "(approximate digitizations, presentation only — the gated "
        "comparison is each figure's claim table).</p>",
    ]
    for section, artifact, image in cards:
        parts.append(_figure_card(section, artifact, image))
    parts.append("<h2>Trace digest</h2>")
    if trace_image and trace_digest is not None:
        capped = ""
        if trace_digest.dropped_events:
            capped = (
                '<div class="warn">⚠ trace capped at the tracer\'s '
                "per-phase event budget: "
                f"{trace_digest.dropped_events} events dropped</div>"
            )
        parts.append(
            f'<p class="meta">{trace_digest.span_count} spans across '
            f"{len(trace_digest.kinds)} kinds "
            f"({trace_digest.total_us:.0f} us total, "
            f"{trace_digest.instant_count} instants); critical path "
            "ranked by total span time.</p>"
            f"{capped}"
            f'<div class="card"><img src="{_esc(trace_image)}" '
            'alt="trace digest">'
            + _table(
                CRITICAL_PATH_HEADERS,
                critical_path_rows(trace_digest),
            )
            + "</div>"
        )
    else:
        parts.append(
            '<p class="meta">no trace recorded for this run.</p>'
        )
    parts.append(
        '<p class="meta">underlying data: <a href="report.json">'
        "report.json</a> — identical to the gated "
        "<code>repro reproduce</code> document.</p>"
    )
    parts.append("</body></html>")
    return "\n".join(parts) + "\n"
