"""Chaos search: random fault schedules vs. the safety+liveness bar.

The fault sweep (:mod:`repro.experiments.faultsweep`) checks one
hand-picked plan per injector family.  Chaos search instead *samples*
schedules: ``--seeds N`` draws N random plans — 2..5 specs each, any
mix of transient and hard faults, seeded windows/probabilities — and
runs every one under a fresh invariant monitor with recovery enabled.
A schedule passes only if it meets both bars:

* **safety** — zero invariant violations (the paper's protection
  contract: faults may cost throughput, never expose freed memory);
* **liveness** — the run completes (no watchdog / early quiescence),
  every latched hard fault was recovered by the reset protocol
  (:class:`~repro.nic.recovery.RecoveryManager`), and the worst MTTR
  stayed within the documented bound (DESIGN.md §14).

Rows are independent :class:`~repro.parallel.PointSpec` points, so
``--jobs N`` fans them across the shared process pool with
byte-identical timelines (plans are built in the parent; injector
streams are pure functions of the plan seed).

When a schedule fails the bar, :func:`shrink_plan` delta-debugs it
(ddmin over the spec set, re-running candidate subsets serially) down
to a minimal reproducer — typically 1..3 specs — which the CLI writes
as a committed plan JSON for ``repro run fig7 --faults plan.json``.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

from ..faults import FaultPlan, FaultSpec
from ..faults.plan import HARD_KINDS, KINDS_BY_COMPONENT
from ..parallel import PointSpec, derive_seed, run_points
from ..sim.rng import SeededRng
from .figures import FigureResult
from .settings import DEFAULT_MTTR_BOUND_NS, QUICK, RunScale

if TYPE_CHECKING:  # pragma: no cover
    import argparse

__all__ = [
    "DEFAULT_MTTR_BOUND_NS",
    "ChaosFailure",
    "failure_reasons",
    "main",
    "run_chaos",
    "sample_plan",
    "shrink_plan",
]

CHAOS_HEADERS = [
    "plan",
    "specs",
    "gbps",
    "faults",
    "recov",
    "mttr_us",
    "wedges",
    "viol",
    "outcome",
    "verdict",
]

# Per-kind sampling ranges: (probability low/high, magnitude low/high).
# Probabilities are per-opportunity, so per-translation kinds must stay
# small: a fault-storm at p=0.01 compounds over ~16 DMA transactions
# per page into ~15% packet loss and collapses the DCTCP workload —
# which then starves the very windows the schedule meant to exercise.
_KIND_PARAMS: dict[str, tuple[tuple[float, float], tuple[float, float]]] = {
    "drop-completion": ((0.05, 0.30), (0.0, 0.0)),
    "delay-completion": ((0.20, 0.60), (500.0, 4_000.0)),
    "partial-completion": ((0.05, 0.30), (0.0, 0.0)),
    "wedge-invq": ((1.0, 1.0), (0.0, 0.0)),
    "link-flap": ((1.0, 1.0), (0.0, 0.0)),
    "lane-loss": ((1.0, 1.0), (2.0, 2.0)),
    "nack-replay": ((0.05, 0.30), (500.0, 4_000.0)),
    "ring-stall": ((1.0, 1.0), (0.0, 0.0)),
    "doorbell-drop": ((0.05, 0.20), (20_000.0, 200_000.0)),
    "device-wedge": ((1.0, 1.0), (0.0, 0.0)),
    "loss": ((0.001, 0.010), (0.0, 0.0)),
    "reorder": ((0.02, 0.10), (2_000.0, 20_000.0)),
    "fault-storm": ((0.0002, 0.0020), (0.0, 0.0)),
}


def _catalog() -> list[tuple[str, str]]:
    """Every (component, kind) pair, in stable catalog order."""
    return [
        (component, kind)
        for component, kinds in KINDS_BY_COMPONENT.items()
        for kind in kinds
    ]


def sample_plan(
    root_seed: int, index: int, scale: RunScale = QUICK
) -> FaultPlan:
    """Draw the ``index``-th random schedule for ``root_seed``.

    Pure function of its arguments: the same (root seed, index, scale)
    triple yields a byte-identical plan in every process, which is what
    makes ``--jobs N`` chaos timelines match a serial run.  Each plan
    holds 2..5 distinct (component, kind) specs with seeded windows;
    hard faults open early enough that detection + reset + the ensuing
    sender RTO stall all fit inside the run horizon.
    """
    rng = SeededRng(root_seed, f"chaos/{index}")
    remaining = _catalog()
    count = rng.randint(2, min(5, len(remaining)))
    specs = []
    for _ in range(count):
        component, kind = remaining.pop(rng.randint(0, len(remaining) - 1))
        (p_lo, p_hi), (m_lo, m_hi) = _KIND_PARAMS[kind]
        if kind in HARD_KINDS:
            # A latched wedge needs the rest of the horizon to be
            # detected, reset, and for the transport to recover.
            start = rng.uniform(
                0.5 * scale.warmup_ns,
                scale.warmup_ns + 0.35 * scale.measure_ns,
            )
            duration = rng.uniform(0.10, 0.20) * scale.measure_ns
        else:
            start = rng.uniform(
                0.3 * scale.warmup_ns,
                scale.warmup_ns + 0.6 * scale.measure_ns,
            )
            duration = rng.uniform(0.05, 0.25) * scale.measure_ns
        horizon = scale.warmup_ns + scale.measure_ns
        specs.append(
            FaultSpec(
                component,
                kind,
                start_ns=start,
                end_ns=min(start + duration, horizon),
                probability=rng.uniform(p_lo, p_hi),
                magnitude=rng.uniform(m_lo, m_hi),
            )
        )
    specs.sort(key=lambda spec: (spec.start_ns, spec.component, spec.kind))
    return FaultPlan(
        seed=derive_seed(root_seed, "Chaos", "plan", index),
        name=f"chaos-{index}",
        specs=tuple(specs),
    )


def failure_reasons(row: dict, mttr_bound_ns: float) -> list[str]:
    """Why a chaos row failed the bar (empty list = pass)."""
    reasons = []
    if row["outcome"] != "ok":
        reasons.append(f"outcome:{row['outcome']}")
    if row["violations"]:
        reasons.append(f"violations:{row['violations']}")
    if row["unrecovered_wedges"]:
        reasons.append(f"unrecovered-wedges:{row['unrecovered_wedges']}")
    if row["mttr_max_ns"] > mttr_bound_ns:
        reasons.append(
            f"mttr:{row['mttr_max_ns']:.0f}ns>{mttr_bound_ns:.0f}ns"
        )
    return reasons


@dataclass
class ChaosFailure:
    """One schedule that failed the bar, with its replay context."""

    index: int
    plan: FaultPlan
    reasons: list[str] = field(default_factory=list)
    row: dict = field(default_factory=dict)


def run_chaos(
    seeds: int = 25,
    root_seed: int = 1,
    mode: str = "fns",
    flows: int = 5,
    scale: RunScale = QUICK,
    jobs: Optional[int] = None,
    chunk: Optional[int] = None,
    mttr_bound_ns: float = DEFAULT_MTTR_BOUND_NS,
    recovery: bool = True,
) -> tuple[FigureResult, list[ChaosFailure]]:
    """Run ``seeds`` random schedules; return the table and failures.

    ``recovery=False`` runs the same schedules without the reset
    protocol — hard faults then go unrecovered, which is the seeded
    failure the shrinker demo (and its test) minimizes.
    """
    result = FigureResult(
        "Chaos",
        f"chaos search: {mode}, {flows} flows, {seeds} schedules, "
        f"root seed {root_seed} "
        f"(bar: zero violations, MTTR <= {mttr_bound_ns / 1e3:.0f} us)",
        CHAOS_HEADERS,
        notes=(
            "wedges: hard faults still latched at the end of the run; "
            "a FAIL verdict is shrunk to a minimal repro plan"
        ),
    )
    plans = [sample_plan(root_seed, i, scale) for i in range(seeds)]
    specs = [
        PointSpec(
            figure="Chaos",
            runner="chaos_row",
            mode=mode,
            x=index,
            label=f"chaos {mode} {index}",
            seed=derive_seed(root_seed, "Chaos", mode, index),
            payload=(plan, flows, recovery),
        )
        for index, plan in enumerate(plans)
    ]
    failures: list[ChaosFailure] = []
    for spec, row in zip(specs, run_points(specs, scale, jobs=jobs, chunk=chunk)):
        plan = plans[spec.x]
        reasons = failure_reasons(row, mttr_bound_ns)
        result.raw[spec.x] = {
            "plan": plan,
            "timeline": row["timeline"],
            "row": row,
        }
        result.rows.append(
            [
                spec.x,
                len(plan.specs),
                round(row["goodput_gbps"], 2),
                row["injected"],
                row["recoveries"],
                round(row["mttr_max_ns"] / 1e3, 1),
                row["unrecovered_wedges"],
                row["violations"],
                row["outcome"],
                "FAIL" if reasons else "ok",
            ]
        )
        if reasons:
            failures.append(ChaosFailure(spec.x, plan, reasons, row))
    return result, failures


# ----------------------------------------------------------------------
# Schedule shrinking (ddmin)
# ----------------------------------------------------------------------
def _subplan(plan: FaultPlan, specs: list[FaultSpec]) -> FaultPlan:
    # Keep the seed: injector streams are keyed by (seed, component),
    # so specs of untouched components replay identically.
    return FaultPlan(seed=plan.seed, name=f"{plan.name}-min", specs=tuple(specs))


def shrink_plan(
    plan: FaultPlan,
    fails: Callable[[FaultPlan], bool],
) -> tuple[FaultPlan, int]:
    """ddmin the failing ``plan`` to a minimal spec subset.

    ``fails(candidate)`` reruns a candidate plan and reports whether it
    still fails the bar.  Classic delta debugging over the spec tuple:
    try each of ``n`` chunks, then each complement, halving granularity
    on success and doubling it otherwise.  Returns the 1-minimal plan
    (removing any single remaining spec makes the failure vanish) and
    the number of reruns spent.
    """
    specs = list(plan.specs)
    evaluations = 0

    def check(candidate: list[FaultSpec]) -> bool:
        nonlocal evaluations
        evaluations += 1
        return fails(_subplan(plan, candidate))

    if not check(specs):
        # Not reproducible (should not happen: plans are deterministic);
        # refuse to "shrink" to something that does not fail.
        return plan, evaluations
    granularity = 2
    while len(specs) >= 2:
        whole, remainder = divmod(len(specs), granularity)
        bounds = []
        cursor = 0
        for i in range(granularity):
            size = whole + (1 if i < remainder else 0)
            if size:
                bounds.append((cursor, cursor + size))
                cursor += size
        progressed = False
        for lo, hi in bounds:
            subset = specs[lo:hi]
            if len(subset) < len(specs) and check(subset):
                specs, granularity, progressed = subset, 2, True
                break
        if not progressed and granularity > 2:
            for lo, hi in bounds:
                complement = specs[:lo] + specs[hi:]
                if complement and check(complement):
                    specs = complement
                    granularity = max(granularity - 1, 2)
                    progressed = True
                    break
        if not progressed:
            if granularity >= len(specs):
                break
            granularity = min(len(specs), 2 * granularity)
    return _subplan(plan, specs), evaluations


def replay_fails(
    mode: str,
    flows: int,
    recovery: bool,
    scale: RunScale,
    mttr_bound_ns: float,
) -> Callable[[FaultPlan], bool]:
    """The serial rerun predicate the CLI hands to :func:`shrink_plan`."""
    from .points import POINT_RUNNERS

    runner = POINT_RUNNERS["chaos_row"]

    def fails(candidate: FaultPlan) -> bool:
        spec = PointSpec(
            figure="Chaos",
            runner="chaos_row",
            mode=mode,
            x="shrink",
            label="chaos shrink",
            seed=candidate.seed,
            payload=(candidate, flows, recovery),
        )
        return bool(failure_reasons(runner(spec, scale), mttr_bound_ns))

    return fails


def main(args: argparse.Namespace) -> int:
    """``repro chaos``: sample schedules; shrink the first failure."""
    result, failures = run_chaos(
        seeds=args.seeds,
        root_seed=args.seed,
        mode=args.mode,
        flows=args.flows,
        scale=args.scale,
        jobs=args.jobs,
        mttr_bound_ns=args.mttr_bound_ns,
        recovery=not args.no_recovery,
        chunk=args.chunk,
    )
    print(result.format())
    if not failures:
        print(
            f"chaos: {args.seeds} schedules passed "
            "(zero violations, all hard faults recovered in bound)"
        )
        return 0
    first = failures[0]
    print(
        f"chaos: {len(failures)}/{args.seeds} schedules failed; "
        f"shrinking plan {first.index} "
        f"({len(first.plan.specs)} specs; {', '.join(first.reasons)})",
        file=sys.stderr,
    )
    fails = replay_fails(
        args.mode,
        args.flows,
        not args.no_recovery,
        args.scale,
        args.mttr_bound_ns,
    )
    minimal, evaluations = shrink_plan(first.plan, fails)
    with open(args.out, "w") as handle:
        handle.write(minimal.to_json() + "\n")
    print(
        f"chaos: minimal repro has {len(minimal.specs)} spec(s) "
        f"after {evaluations} reruns -> {args.out}",
        file=sys.stderr,
    )
    for spec in minimal.specs:
        print(
            f"  {spec.component}/{spec.kind} "
            f"[{spec.start_ns:.0f}, {spec.end_ns:.0f})ns "
            f"p={spec.probability:g} mag={spec.magnitude:g}",
            file=sys.stderr,
        )
    return 1
