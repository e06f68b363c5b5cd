"""The ``repro reproduce`` driver: run figures, gate on paper claims.

Runs the selected figure sweeps with a metrics registry installed,
evaluates each figure's expectation spec, and writes:

* ``REPORT.md`` — a generated paper-vs-ours report with a ✓/✗ table
  per claim and each figure's distance from the paper's curves,
  replacing hand-maintained drift in ``EXPERIMENTS.md``;
* ``report.json`` — the same content machine-readable, stamped with a
  run-provenance manifest (seed, config hash, scale, git sha) so two
  reports can be compared with ``repro diff``.

Exit status is nonzero when any claim is violated, making the report a
CI gate as well as a document.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
from typing import TYPE_CHECKING, Callable, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover
    import argparse

    from ...cache.store import ResultCache

from ...analysis.report import format_markdown_table
from ...context import using
from ...experiments.settings import RunScale
from ..registry import MetricsRegistry
from .engine import FigureEvaluation, FigureSpec, evaluate_figure, paper_score

__all__ = [
    "REPORT_SCHEMA",
    "main",
    "default_runners",
    "provenance",
    "collect_sections",
    "report_doc",
    "run_reproduce",
    "render_report_md",
]

REPORT_SCHEMA = "repro.report/1"


def default_runners() -> dict[str, Callable]:
    """Figure key -> runner, for every figure that has a spec."""
    from ...experiments import FIGURES
    from ..expectations import SPECS

    return {
        key: runner
        for key, (runner, _description) in FIGURES.items()
        if key in SPECS
    }


def _git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _git_dirty() -> Optional[bool]:
    """Whether the worktree differs from HEAD; ``None`` when unknowable.

    A dirty worktree used to stamp a clean-looking sha into
    ``report.json`` — indistinguishable from a run of the committed
    code.  The flag travels next to the sha so report diffs (which
    print ``+dirty``) can discount uncommitted runs.
    """
    try:
        out = subprocess.run(
            ["git", "status", "--porcelain"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    return bool(out.stdout.strip())


def provenance(
    figures: Sequence[str],
    scale: RunScale,
    seed: int,
    specs: dict[str, FigureSpec],
    cache_stats: Optional[dict] = None,
) -> dict:
    """The run-provenance manifest stamped into ``report.json``.

    The config hash covers everything that determines the report's
    content in a deterministic run: the figure list, the run scale, the
    seed and the expectation specs themselves.  Two reports with equal
    config hashes are directly comparable; a changed spec changes the
    hash, flagging that a diff crosses an expectation revision.
    """
    config = {
        "figures": list(figures),
        "scale": {
            "name": scale.name,
            "warmup_ns": scale.warmup_ns,
            "measure_ns": scale.measure_ns,
            "latency_measure_ns": scale.latency_measure_ns,
        },
        "seed": seed,
        "specs": [
            part
            for key in figures
            if key in specs
            for part in specs[key].digest_parts()
        ],
    }
    digest = hashlib.sha256(
        json.dumps(config, sort_keys=True).encode()
    ).hexdigest()
    manifest = {
        "git_sha": _git_sha(),
        "git_dirty": _git_dirty(),
        "scale": scale.name,
        "seed": seed,
        "figures": list(figures),
        "config_hash": digest[:16],
    }
    if cache_stats is not None:
        # Not part of the config hash: whether cells came from the
        # store is run history, not run identity.  ``repro diff`` uses
        # it to flag warm-vs-cold comparisons.
        manifest["cache"] = dict(cache_stats)
    return manifest


def _truncated_phases(metrics: dict) -> list[str]:
    return [
        phase.get("label", "?")
        for phase in metrics.get("phases", [])
        if phase.get("truncated")
    ]


def collect_sections(
    names: Sequence[str],
    *,
    scale: RunScale,
    seed: int = 1,
    jobs: Optional[int] = None,
    chunk: Optional[int] = None,
    runners: Optional[dict[str, Callable]] = None,
    specs: Optional[dict[str, FigureSpec]] = None,
    echo: Callable[[str], None] = print,
) -> list[dict]:
    """Run each named figure, evaluate its spec and score its rows.

    Each runner is called as ``runner(scale=, seed=, jobs=, chunk=)``;
    via :mod:`repro.parallel` the sections are identical at any
    ``--jobs``.
    """
    from ..expectations import SPECS, reference_curves

    runners = runners if runners is not None else default_runners()
    specs = specs if specs is not None else SPECS
    sections = []
    for name in names:
        registry = MetricsRegistry()
        with using(registry=registry):
            result = runners[name](
                scale=scale, seed=seed, jobs=jobs, chunk=chunk
            )
        metrics = registry.report()
        evaluation = evaluate_figure(specs[name], result, metrics=metrics)
        echo(result.format())
        echo(evaluation.format())
        sections.append(
            {
                "figure": name,
                "figure_id": result.figure_id,
                "title": result.title,
                "headers": result.headers,
                "rows": result.rows,
                "notes": result.notes,
                "evaluation": evaluation,
                "paper_score": paper_score(
                    result.headers, result.rows, reference_curves(name)
                ),
                "truncated_phases": _truncated_phases(metrics),
            }
        )
    return sections


def main(args: argparse.Namespace) -> int:
    """``repro reproduce``: the parsed command line to :func:`run_reproduce`."""
    from ...cache.store import ResultCache

    return run_reproduce(
        args.figures,
        scale=args.scale,
        seed=args.seed,
        jobs=args.jobs,
        chunk=args.chunk,
        report_path=args.out,
        json_path=args.json,
        cache=None if args.no_cache else ResultCache(args.cache_dir),
    )


def run_reproduce(
    figures: Optional[Sequence[str]] = None,
    *,
    scale: RunScale,
    seed: int = 1,
    jobs: Optional[int] = None,
    chunk: Optional[int] = None,
    report_path: str = "REPORT.md",
    json_path: str = "report.json",
    runners: Optional[dict[str, Callable]] = None,
    specs: Optional[dict[str, FigureSpec]] = None,
    echo: Callable[[str], None] = print,
    cache: Optional["ResultCache"] = None,
) -> int:
    """Run figures, evaluate claims, write both reports; 1 on failure.

    ``figures`` of ``None`` runs every figure with a runner and a spec;
    an empty or unknown selection returns 2 without running anything.

    ``jobs > 1`` fans each figure's sweep points across a process pool
    (:mod:`repro.parallel`); reports are identical to a serial run.
    ``cache`` installs a content-addressed result cache for the run:
    unchanged cells are served from the store (the report stays
    byte-identical to a cold run apart from the ``provenance.cache``
    stamp) and computed cells are written back.
    """
    from ..expectations import SPECS

    runners = runners if runners is not None else default_runners()
    specs = specs if specs is not None else SPECS
    available = [key for key in runners if key in specs]
    names = available if figures is None else list(figures)
    unknown = [n for n in names if n not in available]
    if unknown or not names:
        echo(f"no runner/spec for {unknown}; available: {available}")
        return 2

    # Snapshot, not absolute counters: one ResultCache instance may
    # serve many runs and each report must stamp only its own hits and
    # misses.
    before = cache.stats.as_dict() if cache is not None else {}
    with using(cache=cache):
        sections = collect_sections(
            names,
            scale=scale,
            seed=seed,
            jobs=jobs,
            chunk=chunk,
            runners=runners,
            specs=specs,
            echo=echo,
        )
    cache_stats = None
    if cache is not None:
        after = cache.stats.as_dict()
        cache_stats = {
            "cells_cached": after["hits"] - before["hits"],
            "cells_computed": after["misses"] - before["misses"],
            "bytes_read": after["bytes_read"] - before["bytes_read"],
            "bytes_written": (
                after["bytes_written"] - before["bytes_written"]
            ),
        }
    manifest = provenance(names, scale, seed, specs, cache_stats)
    doc = report_doc(manifest, sections)
    with open(json_path, "w") as handle:
        json.dump(doc, handle, indent=2)
        handle.write("\n")
    with open(report_path, "w") as handle:
        handle.write(render_report_md(manifest, sections))
    summary = doc["summary"]
    echo(
        f"\n{summary['passed']}/{summary['claims']} claims pass "
        f"({summary['failed']} failed, {summary['skipped']} skipped)"
        f"\nreport: {report_path}\njson:   {json_path}"
    )
    if cache is not None:
        echo(f"cache:  {cache.stats.summary()} ({cache.directory})")
    return 1 if summary["failed"] else 0


def report_doc(manifest: dict, sections: list[dict]) -> dict:
    """The machine-readable ``report.json`` document (claims included)."""
    figures = []
    totals = {"claims": 0, "passed": 0, "failed": 0, "skipped": 0}
    for section in sections:
        evaluation: FigureEvaluation = section["evaluation"]
        counts = evaluation.counts()
        for key in totals:
            totals[key] += counts[key]
        figures.append(
            {
                "figure": section["figure"],
                "figure_id": section["figure_id"],
                "title": section["title"],
                "headers": section["headers"],
                "rows": section["rows"],
                "claims": evaluation.to_claims(),
                "paper_score": section["paper_score"],
                "truncated_phases": section["truncated_phases"],
            }
        )
    return {
        "schema": REPORT_SCHEMA,
        "provenance": manifest,
        "figures": figures,
        "summary": totals,
    }


def render_report_md(manifest: dict, sections: list[dict]) -> str:
    """The human-readable ``REPORT.md`` document."""
    totals = {"claims": 0, "passed": 0, "failed": 0, "skipped": 0}
    for section in sections:
        counts = section["evaluation"].counts()
        for key in totals:
            totals[key] += counts[key]
    lines = [
        "# REPORT — paper claims vs this reproduction",
        "",
        "Generated by `repro reproduce`; do not edit by hand.",
        "Regenerate whenever a figure runner or expectation spec",
        "changes (`PYTHONPATH=src python -m repro reproduce`).",
        "",
        "## Provenance",
        "",
        f"- git sha: `{manifest['git_sha']}`"
        + (" (dirty worktree)" if manifest.get("git_dirty") else ""),
        f"- run scale: `{manifest['scale']}`, seed {manifest['seed']}",
        f"- config hash: `{manifest['config_hash']}`",
        f"- figures: {', '.join(manifest['figures'])}",
        f"- claims: **{totals['passed']}/{totals['claims']} pass**"
        + (
            f", {totals['failed']} FAILED"
            if totals["failed"]
            else ""
        )
        + (
            f", {totals['skipped']} skipped"
            if totals["skipped"]
            else ""
        ),
        "",
    ]
    for section in sections:
        evaluation: FigureEvaluation = section["evaluation"]
        lines.append(
            f"## {section['figure_id']} — {section['title']}"
        )
        lines.append("")
        lines.extend(_score_lines(section["paper_score"]))
        claim_rows = [
            [o.symbol, o.expectation.claim, o.expectation.paper, o.observed]
            for o in evaluation.outcomes
        ]
        lines.append(
            format_markdown_table(
                ["", "claim", "paper", "ours"], claim_rows
            )
        )
        lines.append("")
        for label in section["truncated_phases"]:
            lines.append(
                f"> **warning:** metric time series truncated at the "
                f"sample cap in phase `{label}` (finals unaffected)."
            )
        if section["truncated_phases"]:
            lines.append("")
        lines.append("<details><summary>reproduced table</summary>")
        lines.append("")
        lines.append("```")
        lines.append(_table_text(section))
        lines.append("```")
        lines.append("")
        lines.append("</details>")
        lines.append("")
    return "\n".join(lines)


def _score_lines(score: Optional[dict]) -> list[str]:
    """The paper-score paragraph and per-series table of one figure."""
    if score is None:
        return ["Paper score: none (no digitized paper curves).", ""]
    rows = [
        [column, mode, f"{mre:.4f}"]
        for column, by_mode in score["series"].items()
        for mode, mre in by_mode.items()
    ]
    return [
        f"Paper score: mean relative error **{score['mre']:.4f}** over "
        f"{score['points']} points of the paper's curves.",
        "",
        format_markdown_table(["column", "mode", "MRE"], rows),
        "",
    ]


def _table_text(section: dict) -> str:
    from ...analysis.report import format_figure

    return format_figure(
        f"{section['figure_id']}: {section['title']}",
        section["headers"],
        section["rows"],
        section.get("notes", ""),
    ).strip()
