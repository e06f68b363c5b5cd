"""Plain-text table formatting for figure output.

``repro run`` prints every figure's and study's rows through these
helpers, so the evaluation tables share one readable format.
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["format_table", "format_figure", "format_markdown_table"]


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]]
) -> str:
    """Fixed-width text table."""
    cells = [[_fmt(value) for value in row] for row in rows]
    widths = [
        max(len(header), *(len(row[i]) for row in cells)) if cells else len(header)
        for i, header in enumerate(headers)
    ]
    def line(parts):
        return "  ".join(part.ljust(width) for part, width in zip(parts, widths))

    out = [line(headers), line("-" * width for width in widths)]
    out.extend(line(row) for row in cells)
    return "\n".join(out)


def format_figure(
    title: str,
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    notes: str = "",
) -> str:
    """A titled table block, one per paper figure."""
    block = [f"== {title} ==", format_table(headers, rows)]
    if notes:
        block.append(notes)
    return "\n" + "\n".join(block) + "\n"


def format_markdown_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]]
) -> str:
    """GitHub-flavored markdown table (for the generated REPORT.md)."""

    def line(parts: Sequence[str]) -> str:
        return "| " + " | ".join(parts) + " |"

    out = [
        line([_md_escape(_fmt(h)) for h in headers]),
        line(["---"] * len(headers)),
    ]
    out.extend(
        line([_md_escape(_fmt(value)) for value in row]) for row in rows
    )
    return "\n".join(out)


def _md_escape(text: str) -> str:
    return text.replace("|", "\\|")


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 100:
            return f"{value:.0f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.3f}"
    return str(value)
