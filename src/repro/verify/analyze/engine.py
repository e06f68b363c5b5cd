"""The ``repro analyze`` entry point: build the model, run the rules.

Pipeline: discover files → build the :class:`ProjectModel` once → run
every registered rule over it → drop ``# noqa``-suppressed findings →
render (text or SARIF).

Exit codes: 0 clean, 1 findings, 2 usage error (unknown rule code, a
missing path, or paths that hold no ``.py`` file).
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence

from ..registry import Finding, explain
from ..sources import is_suppressed, iter_python_files, noqa_lines
from .output import render_sarif, render_text
from .project import ProjectModel
from .rules import AnalyzerRule, default_rules

if TYPE_CHECKING:  # pragma: no cover
    import argparse

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


def main(args: argparse.Namespace) -> int:
    """``repro analyze``: check ``args.paths``, or explain one rule."""
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

    findings = analyze_project(ProjectModel.build(files))
    if args.format == "sarif":
        print(render_sarif(findings))
    elif findings:
        print(render_text(findings))
    return 1 if findings else 0
