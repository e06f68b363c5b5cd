"""The eight expectation verbs: qualitative paper claims as objects.

Every claim the paper makes about a figure is one of a small number of
*shapes*; each shape is one verb here, a frozen dataclass named by the
verb, and the class name is the claim's ``kind``.  A spec file calls
the verbs with row/column selectors and bounds, and the engine
evaluates them against the reproduced
:class:`~repro.experiments.FigureResult` rows (and, for metric-based
claims, against the final values of a
:class:`~repro.obs.MetricsRegistry` phase).

Selectors shared by the row-based verbs:

``column``
    A header name from the figure's table (``"gbps"``, ``"m3/pg"``).
``mode``
    The series (row[0]): ``"off"``, ``"strict"``, ``"fns"``, ... —
    ``None`` selects every row (used by mode-less figures).
``at``
    A tuple of x values (row[1]) to check; ``None`` means every x the
    sweep produced, so specs stay valid when a test runs a sub-sweep.

The selectors are positional; everything else is keyword-only.  Each
verb records a human-readable ``claim`` plus the ``paper`` value it
encodes; the generated ``REPORT.md`` prints both next to the observed
numbers.
"""

from __future__ import annotations

from dataclasses import KW_ONLY, dataclass
from typing import TYPE_CHECKING, Callable, ClassVar, Optional, Sequence

from ..registry import _sum_metric

if TYPE_CHECKING:  # pragma: no cover
    from .engine import EvalContext

__all__ = [
    "Expectation",
    "Outcome",
    "is_zero",
    "equal",
    "grows_with",
    "declines_with",
    "wins",
    "within_band",
    "crossover_at",
    "largest_class",
]


@dataclass(frozen=True)
class Outcome:
    """One evaluated expectation: pass/fail/skip plus observed values."""

    expectation: "Expectation"
    status: str  # "pass" | "fail" | "skip"
    observed: str

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    @property
    def failed(self) -> bool:
        return self.status == "fail"

    @property
    def symbol(self) -> str:
        return {"pass": "✓", "fail": "✗", "skip": "–"}[self.status]

    def describe(self) -> str:
        return (
            f"[{self.symbol}] {self.expectation.claim} "
            f"(observed: {self.observed})"
        )


class SpecError(Exception):
    """A spec referenced a column/mode/x the figure does not produce."""


@dataclass(frozen=True, kw_only=True)
class Expectation:
    """Base verb: a claim, the paper's value, and row selectors."""

    claim: str
    paper: str = ""

    def __post_init__(self) -> None:
        # Sequence selectors are stored as tuples: the verb is frozen.
        for name in ("at", "between", "among"):
            value = getattr(self, name, None)
            if value is not None:
                object.__setattr__(self, name, tuple(value))

    @property
    def kind(self) -> str:
        """The verb's name, as the report and the config hash print it."""
        return type(self).__name__

    def evaluate(self, ctx: "EvalContext") -> Outcome:
        try:
            status, observed = self._eval(ctx)
        except SpecError as exc:
            status, observed = "fail", f"spec error: {exc}"
        return Outcome(self, status, observed)

    def _eval(self, ctx: "EvalContext") -> tuple[str, str]:
        raise NotImplementedError

    # -- row/column helpers (shared by the row-based verbs) ------------
    @staticmethod
    def _col(ctx: "EvalContext", name: str) -> int:
        try:
            return ctx.result.headers.index(name)
        except ValueError:
            raise SpecError(
                f"no column {name!r} in {ctx.result.headers}"
            ) from None

    @staticmethod
    def _rows(
        ctx: "EvalContext",
        mode: Optional[str],
        at: Optional[Sequence],
    ) -> list[list]:
        rows = [
            row
            for row in ctx.result.rows
            if (mode is None or row[0] == mode)
            and (at is None or row[1] in at)
        ]
        if not rows:
            raise SpecError(f"no rows for mode={mode!r} at={at!r}")
        return rows

    def _series(
        self,
        ctx: "EvalContext",
        column: str,
        mode: Optional[str],
        at: Optional[Sequence],
        of: Optional[str] = None,
    ) -> list[tuple[object, float]]:
        """``(x, value)`` pairs in sweep order; ratio to ``of`` if set."""
        col = self._col(ctx, column)
        rows = self._rows(ctx, mode, at)
        pairs = [(row[1], float(row[col])) for row in rows]
        if of is None:
            return pairs
        base = {
            row[1]: float(row[col]) for row in self._rows(ctx, of, at)
        }
        ratios = []
        for x, value in pairs:
            if x not in base:
                raise SpecError(f"mode {of!r} has no x={x!r}")
            if base[x] == 0:
                raise SpecError(f"{of}.{column} is 0 at x={x!r}")
            ratios.append((x, value / base[x]))
        return ratios

    @staticmethod
    def _show(pairs: Sequence[tuple[object, float]]) -> str:
        return ", ".join(f"x={x}: {value:g}" for x, value in pairs)


@dataclass(frozen=True)
class is_zero(Expectation):
    """The value is (exactly, or within ``tol`` of) zero.

    Row form: ``column``/``mode``/``at`` select table cells.  Metric
    form: ``metric``/``phase_contains`` sum a registry metric's final
    value over matching phases — skipped when no metrics were taken.
    """

    column: Optional[str] = None
    mode: Optional[str] = None
    _: KW_ONLY
    at: Optional[Sequence] = None
    tol: float = 0.0
    metric: Optional[str] = None
    phase_contains: Optional[str] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if (self.column is None) == (self.metric is None):
            raise ValueError("pass exactly one of column= or metric=")

    def _eval(self, ctx: "EvalContext") -> tuple[str, str]:
        if self.metric is not None:
            return self._eval_metric(ctx)
        assert self.column is not None
        pairs = self._series(ctx, self.column, self.mode, self.at)
        bad = [(x, v) for x, v in pairs if abs(v) > self.tol]
        status = "fail" if bad else "pass"
        return status, f"{self.mode or 'all'}.{self.column}: " + self._show(
            pairs
        )

    def _eval_metric(self, ctx: "EvalContext") -> tuple[str, str]:
        if ctx.metrics is None:
            return "skip", "no metrics collected for this run"
        total, phases = _sum_phase_metric(
            ctx.metrics, self.metric or "", self.phase_contains
        )
        if phases == 0:
            raise SpecError(
                f"no phase label contains {self.phase_contains!r}"
            )
        status = "pass" if abs(total) <= self.tol else "fail"
        return status, (
            f"sum({self.metric}) over {phases} phase(s) = {total:g}"
        )


def _sum_phase_metric(
    metrics: dict, metric: str, phase_contains: Optional[str]
) -> tuple[float, int]:
    """Sum ``metric``'s final values over matching phases of a report."""
    total = 0.0
    matched = 0
    for phase in metrics.get("phases", []):
        label = phase.get("label", "")
        if phase_contains is not None and phase_contains not in label:
            continue
        matched += 1
        total += _sum_metric(phase.get("final") or {}, metric)
    return total, matched


@dataclass(frozen=True)
class equal(Expectation):
    """Two columns agree row-wise, or one column agrees at two x's."""

    column: str
    column_b: Optional[str] = None
    _: KW_ONLY
    mode: Optional[str] = None
    at: Optional[Sequence] = None
    between: Optional[Sequence] = None
    tol_abs: float = 0.0
    tol_rel: float = 0.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if (self.column_b is None) == (self.between is None):
            raise ValueError("pass exactly one of column_b= or between=")

    def _eval(self, ctx: "EvalContext") -> tuple[str, str]:
        if self.column_b is not None:
            pairs_a = self._series(ctx, self.column, self.mode, self.at)
            pairs_b = self._series(ctx, self.column_b, self.mode, self.at)
            label = f"{self.column} vs {self.column_b}"
        else:
            assert self.between is not None
            x1, x2 = self.between
            pairs_a = self._series(ctx, self.column, self.mode, (x1,))
            pairs_b = self._series(ctx, self.column, self.mode, (x2,))
            label = f"{self.column} at x={x1} vs x={x2}"
        ok = all(
            self._close(va, vb)
            for (_, va), (_, vb) in zip(pairs_a, pairs_b)
        )
        observed = (
            f"{label}: {self._show(pairs_a)} | {self._show(pairs_b)}"
        )
        return ("pass" if ok else "fail"), observed

    def _close(self, a: float, b: float) -> bool:
        return abs(a - b) <= max(
            self.tol_abs, self.tol_rel * max(abs(a), abs(b))
        )


@dataclass(frozen=True)
class grows_with(Expectation):
    """Last sweep point ≥ first × ``factor`` − ``slack``.

    With ``of=``, the trend is checked on the ``mode``/``of`` ratio
    (e.g. "strict's relative throughput recovers at larger sizes").
    """

    declines: ClassVar[bool] = False

    column: str
    mode: Optional[str] = None
    _: KW_ONLY
    of: Optional[str] = None
    at: Optional[Sequence] = None
    factor: float = 1.0
    slack: float = 0.0

    def _eval(self, ctx: "EvalContext") -> tuple[str, str]:
        pairs = self._series(ctx, self.column, self.mode, self.at, self.of)
        if len(pairs) < 2:
            raise SpecError("need at least two sweep points for a trend")
        first, last = pairs[0][1], pairs[-1][1]
        if self.declines:
            ok = first >= last * self.factor - self.slack
        else:
            ok = last >= first * self.factor - self.slack
        suffix = f" / {self.of}" if self.of else ""
        observed = f"{self.column}{suffix}: {self._show(pairs)}"
        return ("pass" if ok else "fail"), observed


class declines_with(grows_with):
    """First sweep point ≥ last × ``factor`` − ``slack`` (mirror verb)."""

    declines: ClassVar[bool] = True


@dataclass(frozen=True)
class wins(Expectation):
    """``mode`` beats ``over``: value > other × ``by`` at each shared x.

    ``agg="max"`` compares the series maxima instead (tail claims like
    "strict's worst tail is 10× off's worst tail").
    """

    mode: str
    over: str
    column: str
    _: KW_ONLY
    by: float = 1.0
    at: Optional[Sequence] = None
    agg: str = "all"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.agg not in ("all", "max"):
            raise ValueError(f"agg must be 'all' or 'max', got {self.agg!r}")

    def _eval(self, ctx: "EvalContext") -> tuple[str, str]:
        mine = self._series(ctx, self.column, self.mode, self.at)
        their_pairs = self._series(ctx, self.column, self.over, self.at)
        theirs = dict(their_pairs)
        observed = (
            f"{self.mode}.{self.column}: {self._show(mine)} vs "
            f"{self.over}: {self._show(their_pairs)}"
        )
        if self.agg == "max":
            ok = max(v for _, v in mine) > max(theirs.values()) * self.by
            return ("pass" if ok else "fail"), observed
        shared = [(x, v) for x, v in mine if x in theirs]
        if not shared:
            raise SpecError(
                f"modes {self.mode!r}/{self.over!r} share no x values"
            )
        ok = all(v > theirs[x] * self.by for x, v in shared)
        return ("pass" if ok else "fail"), observed


@dataclass(frozen=True)
class within_band(Expectation):
    """Value within bounds: absolute, or relative to mode ``of``.

    Relative form checks ``lo·base ≤ v`` and ``v ≤ hi·base`` where the
    upper bound is loosened to ``max(hi·base, base+slack, hi_min)`` when
    those are given (tail claims shaped like "≤ 3× of off, or within
    200 µs of it").  ``derived=`` evaluates a callable of the
    :class:`FigureResult` instead (e.g. a fitted model constant from
    ``result.raw``), named by ``label=``.
    """

    column: Optional[str] = None
    mode: Optional[str] = None
    _: KW_ONLY
    of: Optional[str] = None
    at: Optional[Sequence] = None
    lo: Optional[float] = None
    hi: Optional[float] = None
    slack: Optional[float] = None
    hi_min: Optional[float] = None
    derived: Optional[Callable] = None
    label: str = "derived"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.derived is None and self.column is None:
            raise ValueError("pass column= or derived=")
        if self.lo is None and self.hi is None:
            raise ValueError("at least one of lo=/hi= is required")

    def _eval(self, ctx: "EvalContext") -> tuple[str, str]:
        if self.derived is not None:
            value = float(self.derived(ctx.result))
            ok = (self.lo is None or value >= self.lo) and (
                self.hi is None or value <= self.hi
            )
            return ("pass" if ok else "fail"), f"{self.label}: {value:g}"
        assert self.column is not None
        if self.of is None:
            pairs = self._series(ctx, self.column, self.mode, self.at)
            ok = all(self._in_abs_band(v) for _, v in pairs)
            observed = f"{self.mode or 'all'}.{self.column}: " + self._show(
                pairs
            )
            return ("pass" if ok else "fail"), observed
        mine = dict(self._series(ctx, self.column, self.mode, self.at))
        base = dict(self._series(ctx, self.column, self.of, self.at))
        shared = [x for x in mine if x in base]
        if not shared:
            raise SpecError(
                f"modes {self.mode!r}/{self.of!r} share no x values"
            )
        ok = all(self._in_rel_band(mine[x], base[x]) for x in shared)
        shown = ", ".join(
            f"x={x}: {mine[x] / base[x]:g}"
            if base[x]
            else f"x={x}: {mine[x]:g} (base 0)"
            for x in shared
        )
        observed = f"{self.mode}.{self.column} / {self.of}: {shown}"
        return ("pass" if ok else "fail"), observed

    def _in_abs_band(self, value: float) -> bool:
        return (self.lo is None or value >= self.lo) and (
            self.hi is None or value <= self.hi
        )

    def _in_rel_band(self, value: float, base: float) -> bool:
        if self.lo is not None and value < base * self.lo:
            return False
        if self.hi is not None:
            bound = base * self.hi
            if self.slack is not None:
                bound = max(bound, base + self.slack)
            if self.hi_min is not None:
                bound = max(bound, self.hi_min)
            if value > bound:
                return False
        return True


@dataclass(frozen=True)
class crossover_at(Expectation):
    """The ``mode``/``of`` ratio stays < ``threshold`` up to ``after``.

    The ratio must also rise to ``threshold`` or above at some later
    sweep point — pinning *where* an effect fades, not just that it
    exists.
    """

    column: str
    mode: str
    _: KW_ONLY
    of: str
    threshold: float
    after: object

    def _eval(self, ctx: "EvalContext") -> tuple[str, str]:
        pairs = self._series(ctx, self.column, self.mode, None, self.of)
        below = [
            (x, r) for x, r in pairs if _le_x(x, self.after)
        ]
        above = [(x, r) for x, r in pairs if not _le_x(x, self.after)]
        if not below:
            raise SpecError(f"no sweep points at or before {self.after!r}")
        ok = all(r < self.threshold for _, r in below)
        ok = ok and any(r >= self.threshold for _, r in above)
        observed = (
            f"{self.mode}.{self.column} / {self.of}: "
            + self._show(pairs)
            + f" (threshold {self.threshold:g} after x={self.after!r})"
        )
        return ("pass" if ok else "fail"), observed


def _le_x(x: object, bound: object) -> bool:
    try:
        return x <= bound  # type: ignore[operator]
    except TypeError:
        raise SpecError(
            f"cannot order x={x!r} against after={bound!r}"
        ) from None


@dataclass(frozen=True)
class largest_class(Expectation):
    """``column`` ≥ every other column in ``among`` at each point."""

    column: str
    _: KW_ONLY
    among: Sequence[str]
    mode: Optional[str] = None
    at: Optional[Sequence] = None

    def __post_init__(self) -> None:
        if self.column not in self.among:
            raise ValueError(
                f"{self.column!r} must be one of among={self.among!r}"
            )
        super().__post_init__()

    def _eval(self, ctx: "EvalContext") -> tuple[str, str]:
        rows = self._rows(ctx, self.mode, self.at)
        col = self._col(ctx, self.column)
        others = [
            self._col(ctx, name)
            for name in self.among
            if name != self.column
        ]
        ok = all(
            float(row[col]) >= max(float(row[i]) for i in others)
            for row in rows
        )
        shown = ", ".join(
            "x={}: {}".format(
                row[1],
                "/".join(f"{float(row[i]):g}" for i in [col] + others),
            )
            for row in rows
        )
        observed = (
            f"{self.column} vs {[n for n in self.among if n != self.column]}"
            f": {shown}"
        )
        return ("pass" if ok else "fail"), observed
