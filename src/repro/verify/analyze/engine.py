"""The ``repro analyze`` entry point: build the model, run the rules.

Pipeline: discover files → build the :class:`ProjectModel` once → run
every registered rule over it → drop ``# noqa``-suppressed findings →
partition against the checked-in baseline → render (text/json/sarif).

Exit codes: 0 clean (or fully baselined), 1 new findings, 2 usage
error (unknown rule code, a missing path, or paths that hold no
``.py`` file).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from ..registry import Finding, explain
from ..sources import is_suppressed, iter_python_files, noqa_lines
from . import baseline as baseline_mod
from .output import render_json, render_sarif, render_text
from .project import ProjectModel
from .rules import AnalyzerRule, default_rules

__all__ = ["analyze_paths", "analyze_project", "main"]


def analyze_project(
    project: ProjectModel, rules: Optional[Sequence[AnalyzerRule]] = None
) -> list[Finding]:
    """All findings (parse errors + rule findings), noqa-filtered and
    sorted by (path, line, col, code)."""
    findings: list[Finding] = list(project.parse_errors)
    for rule in rules if rules is not None else default_rules():
        findings.extend(rule.check(project))
    suppressions = {
        module.path: noqa_lines(module.source)
        for module in project.modules
    }
    findings = [
        finding
        for finding in findings
        if not is_suppressed(
            suppressions.get(finding.path, {}), finding.line, finding.code
        )
    ]
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return findings


def analyze_paths(
    paths: Sequence[str], rules: Optional[Sequence[AnalyzerRule]] = None
) -> list[Finding]:
    project = ProjectModel.build(iter_python_files(paths))
    return analyze_project(project, rules)


def _fingerprinted(
    project: ProjectModel, findings: list[Finding]
) -> list[tuple[Finding, str]]:
    lines_by_path = {module.path: module for module in project.modules}
    out: list[tuple[Finding, str]] = []
    for finding in findings:
        module = lines_by_path.get(finding.path)
        text = module.line_text(finding.line) if module is not None else ""
        out.append((finding, baseline_mod.fingerprint(finding, text)))
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro analyze",
        description=(
            "Static checks of simulator determinism and the DMA "
            "protection protocol over the full project model."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to analyze (default: src/repro)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--baseline",
        default=baseline_mod.DEFAULT_BASELINE,
        help=(
            "baseline file of accepted findings "
            f"(default: {baseline_mod.DEFAULT_BASELINE})"
        ),
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="report every finding, ignoring the baseline file",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="accept all current findings into the baseline and exit 0",
    )
    parser.add_argument(
        "--explain",
        metavar="CODE",
        help="print the rule explanation for CODE and exit",
    )
    args = parser.parse_args(argv)

    if args.explain:
        text = explain(args.explain)
        if text is None:
            print(f"unknown rule code: {args.explain}", file=sys.stderr)
            return 2
        print(text)
        return 0

    missing = [path for path in args.paths if not Path(path).exists()]
    if missing:
        # A typo'd path must not pass vacuously (CI would go green
        # while checking nothing).
        for path in missing:
            print(f"repro analyze: no such path: {path}", file=sys.stderr)
        return 2

    files = list(iter_python_files(args.paths))
    if not files:
        # Same reason as above: checking nothing must not pass.
        print(
            "repro analyze: no .py files under: " + " ".join(args.paths),
            file=sys.stderr,
        )
        return 2

    project = ProjectModel.build(files)
    findings = analyze_project(project)
    fingerprinted = _fingerprinted(project, findings)

    if args.write_baseline:
        baseline_mod.write_baseline(args.baseline, fingerprinted)
        print(
            f"wrote {len(fingerprinted)} finding(s) to {args.baseline}",
        )
        return 0

    accepted: set[str] = set()
    if not args.no_baseline:
        accepted = baseline_mod.load_baseline(args.baseline)
    new, baselined = baseline_mod.split_by_baseline(fingerprinted, accepted)
    reported = [finding for finding, _ in new]

    if args.format == "json":
        print(render_json(reported))
    elif args.format == "sarif":
        print(render_sarif(reported))
    elif reported:
        print(render_text(reported))
    if args.format == "text" and baselined:
        print(
            f"({len(baselined)} baselined finding(s) suppressed)",
            file=sys.stderr,
        )
    return 1 if reported else 0


if __name__ == "__main__":
    raise SystemExit(main())
