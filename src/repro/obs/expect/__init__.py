"""Declarative paper-claims engine (the expectation vocabulary).

The paper's headline results are *shapes* — who wins, what is zero,
what grows with what, where the crossovers sit.  This package turns
each such claim into a first-class, machine-readable object:

* :mod:`repro.obs.expect.vocabulary` — the eight expectation verbs
  (``is_zero``, ``equal``, ``grows_with``, ``declines_with``, ``wins``,
  ``within_band``, ``crossover_at``, ``largest_class``);
* :mod:`repro.obs.expectations` — one spec file per paper figure,
  each a plain list of vocabulary objects;
* :mod:`repro.obs.expect.engine` — evaluates a spec against a
  :class:`repro.experiments.FigureResult` (and, optionally, the
  final-phase metrics of a :class:`repro.obs.MetricsRegistry`), and
  scores the rows against the paper's curves (:func:`paper_score`);
* :mod:`repro.obs.expect.reproduce` — the ``repro reproduce`` driver:
  runs figures, evaluates their specs, emits ``REPORT.md`` and a
  provenance-stamped ``report.json``;
* :mod:`repro.obs.expect.diffing` — the ``repro diff`` driver:
  differential regression gating between two report documents.
"""

from .engine import (
    EvalContext,
    FigureEvaluation,
    FigureSpec,
    evaluate_figure,
    paper_score,
)
from .vocabulary import (
    Expectation,
    Outcome,
    crossover_at,
    declines_with,
    equal,
    grows_with,
    is_zero,
    largest_class,
    within_band,
    wins,
)

__all__ = [
    "EvalContext",
    "Expectation",
    "FigureEvaluation",
    "FigureSpec",
    "Outcome",
    "crossover_at",
    "declines_with",
    "equal",
    "evaluate_figure",
    "grows_with",
    "is_zero",
    "largest_class",
    "paper_score",
    "within_band",
    "wins",
]
