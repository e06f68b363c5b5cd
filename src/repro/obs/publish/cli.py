"""``repro publish`` — render the publication gallery to a directory.

Usage::

    repro publish out/ [--figures fig2,fig9] [--style paper|arxiv]
                       [--format svg] [--from-report PATH]
                       [--full] [--seed N] [--jobs N] [--chunk N]
                       [--trace PATH]

Output layout (all under the positional ``outdir``)::

    index.html          browsable gallery (stdlib-templated)
    report.json         the underlying report document, byte-identical
                        to `repro reproduce` output at any --jobs
    fig*.svg            one publication figure per reproduced figure
    trace_digest.svg    span-trace digest figure
    trace_digest.json   the digest's stats + critical-path table

Figures are drawn by the dependency-free builtin SVG renderer, so
publish needs nothing beyond the stdlib.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from .datasource import (
    generate_report,
    load_report,
    record_trace,
    resolve_scale,
)
from .figdata import FigureArtifact, build_figure_artifact
from .figspecs import PUBLISH_SPECS
from .htmlindex import render_index
from .style import STYLES
from .svgbackend import render_figure_svg
from .tracedigest import (
    CRITICAL_PATH_HEADERS,
    critical_path_rows,
    digest_artifact,
    digest_trace,
    load_trace,
)

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro publish",
        description=(
            "Render publication figures and a trace digest into a "
            "browsable HTML gallery."
        ),
    )
    parser.add_argument(
        "outdir", help="output directory (created if missing)"
    )
    parser.add_argument(
        "--figures",
        default=None,
        help=(
            "comma-separated figure keys (default: all of "
            + ",".join(PUBLISH_SPECS)
            + ")"
        ),
    )
    parser.add_argument(
        "--style", choices=sorted(STYLES), default="paper",
        help="publication style preset (default: paper)",
    )
    parser.add_argument(
        "--format", dest="fmt", choices=("svg",), default="svg",
        help="figure file format (builtin SVG renderer; default: svg)",
    )
    parser.add_argument(
        "--from-report", default=None, metavar="PATH",
        help=(
            "render from an existing report.json instead of running "
            "the sweeps"
        ),
    )
    parser.add_argument(
        "--full", action="store_true",
        help="run sweeps at full scale (default: quick)",
    )
    parser.add_argument(
        "--seed", type=int, default=1,
        help="sweep RNG seed (default: 1)",
    )
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="fan sweep points across N worker processes",
    )
    parser.add_argument(
        "--chunk", type=int, default=None, metavar="N",
        help="points per worker dispatch (with --jobs)",
    )
    parser.add_argument(
        "--trace", default=None, metavar="PATH",
        help=(
            "digest an existing Chrome trace (from `repro report "
            "--trace`); default records a fresh fig12 quick trace"
        ),
    )
    return parser


def main(raw: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(raw)
    fmt = args.fmt
    if args.figures is None:
        requested = list(PUBLISH_SPECS)
    else:
        requested = [
            name.strip()
            for name in args.figures.split(",")
            if name.strip()
        ]
        unknown = [n for n in requested if n not in PUBLISH_SPECS]
        if unknown:
            print(
                f"unknown figure(s) {unknown}; "
                f"available: {', '.join(PUBLISH_SPECS)}",
                file=sys.stderr,
            )
            return 2

    os.makedirs(args.outdir, exist_ok=True)

    # 1. The report document: load or regenerate (the shared
    # collect_sections loop keeps jobs-N data byte-identical).
    if args.from_report is not None:
        try:
            report = load_report(args.from_report)
        except (OSError, ValueError) as exc:
            print(f"cannot use --from-report: {exc}", file=sys.stderr)
            return 2
        print(f"report: loaded {args.from_report}")
    else:
        scale = resolve_scale(args.full)
        report = generate_report(
            requested,
            scale=scale,
            seed=args.seed,
            jobs=args.jobs,
            chunk=args.chunk,
            echo=lambda line: None,
        )
        summary = report["summary"]
        print(
            f"report: ran {len(requested)} figures at {scale.name} "
            f"scale ({summary['passed']}/{summary['claims']} claims "
            "pass)"
        )
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
        filename = f"{name}.{fmt}"
        info = render_figure_svg(
            artifact, args.style, os.path.join(args.outdir, filename)
        )
        counts = artifact.badge_counts()
        print(
            f"figure: {filename} ({info['panels']} panels, "
            f"{counts['pass']}✓/{counts['fail']}✗)"
        )
        cards.append((sections[name], artifact, filename))

    # 3. Trace digest.
    if args.trace is not None:
        try:
            trace_doc = load_trace(args.trace)
        except (OSError, ValueError) as exc:
            print(f"cannot use --trace: {exc}", file=sys.stderr)
            return 2
    else:
        trace_doc = record_trace(seed=args.seed)
    digest = digest_trace(trace_doc)
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
                "critical_path": {
                    "headers": CRITICAL_PATH_HEADERS,
                    "rows": critical_path_rows(digest),
                },
            },
            handle,
            indent=2,
        )
        handle.write("\n")
    trace_image = f"trace_digest.{fmt}"
    render_figure_svg(
        digest_artifact(digest),
        args.style,
        os.path.join(args.outdir, trace_image),
    )
    print(
        f"trace:  {trace_image} ({digest.span_count} spans, "
        f"{len(digest.kinds)} kinds)"
    )

    # 4. The index that ties it together.
    page = render_index(
        report=report,
        cards=cards,
        trace_image=trace_image,
        trace_digest=digest,
        style_name=args.style,
        fmt=fmt,
    )
    index_path = os.path.join(args.outdir, "index.html")
    with open(index_path, "w") as handle:
        handle.write(page)
    print(f"index:  {index_path}")
    return 0
