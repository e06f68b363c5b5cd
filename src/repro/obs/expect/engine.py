"""Spec evaluation: a figure's expectations against its reproduced rows.

A :class:`FigureSpec` is one figure's paper claims; evaluating it
against a :class:`~repro.experiments.FigureResult` (plus, optionally,
the metrics document of the run's :class:`~repro.obs.MetricsRegistry`)
yields a :class:`FigureEvaluation` — the per-claim ✓/✗ table behind
the generated ``REPORT.md`` and ``repro reproduce``'s exit status.
:func:`paper_score` measures how far the same rows sit from the
paper's digitized curves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

from .vocabulary import Expectation, Outcome

if TYPE_CHECKING:  # pragma: no cover
    from ...experiments.figures import FigureResult

__all__ = [
    "EvalContext",
    "FigureSpec",
    "FigureEvaluation",
    "evaluate_figure",
    "paper_score",
]


@dataclass
class EvalContext:
    """What an expectation may look at: the rows, and final metrics."""

    result: "FigureResult"
    metrics: Optional[dict] = None  # a MetricsRegistry.report() document


@dataclass(frozen=True)
class FigureSpec:
    """One figure's claims: the CLI key, a title, and the verb list."""

    figure: str  # CLI figure key, e.g. "fig2"
    title: str
    expectations: tuple[Expectation, ...]

    def digest_parts(self) -> list[str]:
        """Stable strings describing the spec (for the config hash)."""
        return [self.figure, self.title] + [
            f"{e.kind}:{e.claim}" for e in self.expectations
        ]


@dataclass
class FigureEvaluation:
    """Every claim of one figure, evaluated."""

    figure: str
    title: str
    outcomes: list[Outcome]

    @property
    def failures(self) -> list[Outcome]:
        return [o for o in self.outcomes if o.failed]

    @property
    def passed(self) -> bool:
        return not self.failures

    def counts(self) -> dict[str, int]:
        return {
            "claims": len(self.outcomes),
            "passed": sum(o.status == "pass" for o in self.outcomes),
            "failed": sum(o.status == "fail" for o in self.outcomes),
            "skipped": sum(o.status == "skip" for o in self.outcomes),
        }

    def format(self) -> str:
        """Plain-text claim-by-claim block (benchmark output)."""
        lines = [f"-- claims: {self.figure} ({self.title}) --"]
        lines.extend(o.describe() for o in self.outcomes)
        c = self.counts()
        lines.append(
            f"   {c['passed']}/{c['claims']} claims pass"
            + (f", {c['skipped']} skipped" if c["skipped"] else "")
        )
        return "\n".join(lines)

    def to_claims(self) -> list[dict]:
        """JSON-ready per-claim records for ``report.json``."""
        return [
            {
                "kind": o.expectation.kind,
                "claim": o.expectation.claim,
                "paper": o.expectation.paper,
                "observed": o.observed,
                "status": o.status,
            }
            for o in self.outcomes
        ]


def evaluate_figure(
    spec: FigureSpec,
    result: "FigureResult",
    metrics: Optional[dict] = None,
) -> FigureEvaluation:
    """Evaluate every claim of a figure's spec against a result."""
    ctx = EvalContext(result=result, metrics=metrics)
    outcomes = [e.evaluate(ctx) for e in spec.expectations]
    return FigureEvaluation(spec.figure, spec.title, outcomes)


def paper_score(
    headers: Sequence[str],
    rows: Sequence[Sequence],
    curves: dict[str, dict[str, list[tuple[float, float]]]],
) -> Optional[dict]:
    """Mean relative error of table cells against the paper's curves.

    ``curves`` is ``{column: {mode: [(x, y), ...]}}`` and rows are
    ``[mode, x, ...]``.  A point counts only where a row has that mode
    and x and the table has that column; a point whose paper value is
    0 has no relative error and is skipped.  Returns ``None`` when no
    point matched, else ``{"mre", "points", "series"}``: the mean over
    every matched point, their count, and the mean of each series as
    ``{column: {mode: mre}}``.  Errors are summed in column, mode, point
    order, so ``mre`` is bit-equal to ``bench/stats.py::paper_mre``.
    """
    errors: list[float] = []
    series: dict[str, dict[str, float]] = {}
    for column, by_mode in curves.items():
        if column not in headers:
            continue
        index = list(headers).index(column)
        for mode, points in by_mode.items():
            found = []
            for x, paper in points:
                if paper == 0:
                    continue
                for row in rows:
                    if row[0] == mode and row[1] == x:
                        found.append(abs(row[index] - paper) / abs(paper))
                        break
            if found:
                errors.extend(found)
                series.setdefault(column, {})[mode] = sum(found) / len(found)
    if not errors:
        return None
    return {
        "mre": sum(errors) / len(errors),
        "points": len(errors),
        "series": series,
    }
