"""``repro publish`` — render a report document as a gallery.

Usage::

    repro publish out/ [--figures fig2,fig9] [--from-report PATH]
                       [--trace PATH]

Publish runs no sweep of its own: it renders the ``report.json`` that
``repro reproduce`` wrote (``--from-report``, default ``report.json``),
so "run, then render" is ``repro reproduce && repro publish out/``.
The trace digest reads ``--trace`` (a ``repro run --trace`` file);
without one, the gallery has no digest and the index says so.

Output layout (all under the positional ``outdir``)::

    index.html          browsable gallery (stdlib-templated)
    report.json         the rendered report document, copied verbatim
    fig*.svg            one publication figure per reproduced figure
    trace_digest.svg    span-trace digest figure (with --trace)
    trace_digest.json   the digest's stats + critical-path table

Figures are drawn by the dependency-free builtin SVG renderer, so
publish needs nothing beyond the stdlib.
"""

from __future__ import annotations

import json
import os
import sys
from typing import TYPE_CHECKING

from ..expect.reproduce import REPORT_SCHEMA
from .figdata import FigureArtifact, build_figure_artifact
from .figspecs import PUBLISH_SPECS
from .htmlindex import render_index
from .svgbackend import render_figure_svg
from .tracedigest import (
    CRITICAL_PATH_HEADERS,
    critical_path_rows,
    digest_artifact,
    digest_trace,
    load_trace,
)

if TYPE_CHECKING:  # pragma: no cover
    import argparse

__all__ = ["load_report", "main"]


def load_report(path: str) -> dict:
    """Load and validate an existing ``report.json`` document."""
    with open(path) as handle:
        doc = json.load(handle)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: not a JSON object")
    schema = doc.get("schema")
    if schema != REPORT_SCHEMA:
        raise ValueError(
            f"{path}: schema {schema!r} != {REPORT_SCHEMA!r} "
            "(regenerate with `repro reproduce`)"
        )
    for key in ("provenance", "figures", "summary"):
        if key not in doc:
            raise ValueError(f"{path}: missing {key!r}")
    return doc


def main(args: argparse.Namespace) -> int:
    """Render ``args.from_report`` (and any ``--trace``) into ``args.outdir``."""
    requested = args.figures or list(PUBLISH_SPECS)
    unknown = [n for n in requested if n not in PUBLISH_SPECS]
    if unknown:
        print(
            f"unknown figure(s) {unknown}; "
            f"available: {', '.join(PUBLISH_SPECS)}",
            file=sys.stderr,
        )
        return 2
    try:
        report = load_report(args.from_report)
    except (OSError, ValueError) as exc:
        print(f"cannot use --from-report: {exc}", file=sys.stderr)
        return 2
    print(f"report: loaded {args.from_report}")
    os.makedirs(args.outdir, exist_ok=True)

    # 1. The report document, copied beside the figures it backs.
    report_path = os.path.join(args.outdir, "report.json")
    with open(report_path, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")

    sections = {
        section["figure"]: section
        for section in report.get("figures", [])
    }
    missing = [n for n in requested if n not in sections]
    if missing:
        print(
            f"note: {', '.join(missing)} not in the report document; "
            "skipped",
        )

    # 2. Figure renderers (paper overlays + badges via figdata).
    cards: list[tuple[dict, FigureArtifact, str]] = []
    for name in requested:
        if name not in sections:
            continue
        artifact = build_figure_artifact(
            sections[name], PUBLISH_SPECS[name]
        )
        filename = f"{name}.svg"
        info = render_figure_svg(artifact, os.path.join(args.outdir, filename))
        counts = artifact.badge_counts()
        print(
            f"figure: {filename} ({info['panels']} panels, "
            f"{counts['pass']}✓/{counts['fail']}✗)"
        )
        cards.append((sections[name], artifact, filename))

    # 3. Trace digest, when a trace was given.
    trace_image = None
    digest = None
    if args.trace is not None:
        try:
            digest = digest_trace(load_trace(args.trace))
        except (OSError, ValueError) as exc:
            print(f"cannot use --trace: {exc}", file=sys.stderr)
            return 2
        # The raw trace can run to tens of MB; publish only the digest.
        digest_json = os.path.join(args.outdir, "trace_digest.json")
        with open(digest_json, "w") as handle:
            json.dump(
                {
                    "schema": "repro.trace-digest/1",
                    "span_count": digest.span_count,
                    "total_us": round(digest.total_us, 1),
                    "instant_count": digest.instant_count,
                    "tracks": digest.tracks,
                    "dropped_events": digest.dropped_events,
                    "critical_path": {
                        "headers": CRITICAL_PATH_HEADERS,
                        "rows": critical_path_rows(digest),
                    },
                },
                handle,
                indent=2,
            )
            handle.write("\n")
        trace_image = "trace_digest.svg"
        render_figure_svg(
            digest_artifact(digest),
            os.path.join(args.outdir, trace_image),
        )
        print(
            f"trace:  {trace_image} ({digest.span_count} spans, "
            f"{len(digest.kinds)} kinds)"
            + (f"; warning: {digest.dropped_events} events dropped past "
               "the per-phase budget" if digest.dropped_events else "")
        )

    # 4. The index that ties it together.
    page = render_index(
        report=report,
        cards=cards,
        trace_image=trace_image,
        trace_digest=digest,
    )
    index_path = os.path.join(args.outdir, "index.html")
    with open(index_path, "w") as handle:
        handle.write(page)
    print(f"index:  {index_path}")
    return 0

