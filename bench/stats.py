"""Summaries, the accuracy metric, and the two-set comparison rule."""

from __future__ import annotations

import statistics
from typing import Optional, Sequence

__all__ = ["summarize", "spread", "paper_mre", "compare_metric"]

# Tail percentiles, highest first; one is reported only when at least
# ten samples lie beyond it.
TAILS = (99.9, 99.0, 90.0)
MIN_BEYOND = 10


def summarize(samples: Sequence[float]) -> dict:
    """Median, quartiles, sample count and the highest usable tail.

    ``tail`` is ``None`` unless some percentile in :data:`TAILS` has at
    least :data:`MIN_BEYOND` samples beyond it.
    """
    values = sorted(samples)
    n = len(values)
    if not n:
        raise ValueError("no samples")
    q1, q3 = _quartiles(values)
    tail = None
    for pct in TAILS:
        if n * (100.0 - pct) / 100.0 >= MIN_BEYOND:
            index = min(n - 1, int(round(pct / 100.0 * (n - 1))))
            tail = {"pct": pct, "value": values[index]}
            break
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "n": n,
        "tail": tail,
    }


def spread(samples: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (0 if undefined)."""
    values = list(samples)
    median = statistics.median(values) if values else 0.0
    if len(values) < 2 or median == 0:
        return 0.0
    q1, q3 = _quartiles(values)
    return (q3 - q1) / abs(median)


def _quartiles(values: Sequence[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def paper_mre(
    headers: Sequence[str],
    rows: Sequence[Sequence],
    curves: dict[str, dict[str, list[tuple[float, float]]]],
) -> Optional[float]:
    """Mean relative error of table cells against the paper's curves.

    ``curves`` is ``{column: {mode: [(x, y), ...]}}``.  Rows are
    ``[mode, x, ...]``.  Only points with a matching (column, mode, x)
    cell count; points whose paper value is 0 have no relative error
    and are skipped.  ``None`` when nothing matched.
    """
    errors = []
    for column, by_mode in curves.items():
        if column not in headers:
            continue
        index = list(headers).index(column)
        for mode, points in by_mode.items():
            for x, paper in points:
                if paper == 0:
                    continue
                for row in rows:
                    if row[0] == mode and row[1] == x:
                        errors.append(abs(row[index] - paper) / abs(paper))
                        break
    return sum(errors) / len(errors) if errors else None


def compare_metric(
    base: Sequence[float],
    new: Sequence[float],
    *,
    better: str,
    bound: Optional[float],
    exact: bool,
) -> tuple[str, float]:
    """Verdict for one metric on one workload, and the relative change.

    * ``exact`` metrics (counts, accuracy) must repeat exactly:
      ``same`` or ``differs``.
    * With a ``bound``: ``unresolved`` when either set's own spread is
      wider than the bound, unless every new run is better than every
      base run (``better``) or worse than every base run (``worse``);
      otherwise ``worse``/``better`` when the median moved by more than
      the bound in that direction, else ``agree``.
    * Without a bound: ``info``.
    """
    base_median = statistics.median(base)
    new_median = statistics.median(new)
    change = (new_median - base_median) / base_median if base_median else 0.0
    if exact:
        return ("same" if len({*base, *new}) == 1 else "differs"), change
    if bound is None:
        return "info", change
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * change
    if spread(base) > bound or spread(new) > bound:
        if all(sign * (n - b) < 0 for n in new for b in base):
            return "better", change
        if all(sign * (n - b) > 0 for n in new for b in base):
            return "worse", change
        return "unresolved", change
    if worse_by > bound:
        return "worse", change
    if worse_by < -bound:
        return "better", change
    return "agree", change
