"""Command-line interface: reproduce any figure without writing code.

Usage::

    python -m repro list                 # what can be reproduced
    python -m repro fig2                 # run Fig 2 at the quick scale
    python -m repro fig9 --full          # full-length run
    python -m repro fig12 --out out.txt  # also write the table to a file
    python -m repro all                  # every figure and study, quick scale
    python -m repro run fig7 --verify    # run with the invariant monitor
    python -m repro run fig7 --faults plan.json --verify
    python -m repro run fig12 --metrics m.json --trace t.json
    python -m repro faults --seed 2      # fault sweep (safety under faults)
    python -m repro chaos --seeds 50     # random schedules + shrinking
    python -m repro analyze src/repro    # static determinism/DMA-safety checks
    python -m repro reproduce            # claims gate -> REPORT.md + report.json
    python -m repro reproduce --figures fig2,fig7 --jobs 4
    python -m repro diff old.json new.json   # report.json regression gate
    python -m repro cache stats          # result-cache operability
    python -m repro cache gc --max-bytes 268435456

Every command is one row of :data:`COMMANDS`: its help line, the
shared option groups it takes, its own options, and the function that
does its work.  That function lives beside its subsystem and its module
is imported only when the command runs.  A first argument that is not
a command name is a figure: ``repro fig2`` is ``repro run fig2``.

``run`` is the one way to run a figure under observers: ``--verify``
checks every simulated event against the DMA-safety invariants
(:mod:`repro.verify`), ``--faults`` injects a fault plan, ``--metrics``
samples the metrics registry (:mod:`repro.obs`) and ``--trace`` records
a Chrome trace loadable in Perfetto.  ``--jobs N`` fans a figure's
independent sweep points across a process pool (:mod:`repro.parallel`);
results are byte-identical to a serial run.  To profile a figure, run
``python -m cProfile -s cumulative -m repro run fig12``.

``reproduce`` runs figures against their paper-claims expectation specs
(:mod:`repro.obs.expect`), scores each figure against the paper's
curves, regenerates ``REPORT.md``/``report.json`` and exits nonzero on
any violated claim; it serves unchanged cells from the
content-addressed result cache (:mod:`repro.cache`).  ``diff`` compares
two ``report.json`` documents.  A safety violation, here or in a pool
worker, exits 1 with its event trace; a usage error exits 2.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from typing import Optional

from .analysis.report import format_table
from .context import using
from .experiments import FIGURES, FULL, QUICK
from .experiments.settings import DEFAULT_MTTR_BOUND_NS
from .faults import FaultPlan, FaultRuntime
from .obs import MetricsRegistry, SpanTracer
from .parallel import RemotePointError
from .verify import InvariantMonitor, InvariantViolation

__all__ = ["main", "COMMANDS"]

# ``run --metrics`` samples every metric this often, in simulated ns.
SAMPLE_INTERVAL_NS = 100_000.0


def _at_least(minimum: int):
    """An argparse type: an integer no smaller than ``minimum``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"not an integer: {text!r}"
            ) from None
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be >= {minimum}, got {value}"
            )
        return value

    return parse


def _figure(text: str) -> str:
    if text not in FIGURES and text not in ("all", "list"):
        raise argparse.ArgumentTypeError(
            f"unknown figure {text!r} (see 'repro list')"
        )
    return text


def _figure_list(text: str) -> list[str]:
    names = [name.strip() for name in text.split(",") if name.strip()]
    if not names:
        raise argparse.ArgumentTypeError("empty figure list")
    return names


def _shared() -> dict[str, argparse.ArgumentParser]:
    """The option groups several commands take, declared once."""
    full = argparse.ArgumentParser(add_help=False)
    # Read at parse time, so a test that swaps in a smaller QUICK scale
    # shrinks every command.
    full.add_argument(
        "--full",
        dest="scale",
        action="store_const",
        const=FULL,
        default=QUICK,
        help="full-length runs instead of quick",
    )
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument(
        "--seed",
        type=int,
        default=1,
        metavar="N",
        help=(
            "root seed (default: 1); it feeds the 'faults' sweep's "
            "fault plans, chaos schedule sampling and the result-cache "
            "keys, and is stamped into report provenance; the model's "
            "one random input, allocator aging, does not read it"
        ),
    )
    pool = argparse.ArgumentParser(add_help=False)
    pool.add_argument(
        "--jobs",
        type=_at_least(0),
        default=None,
        metavar="N",
        help=(
            "fan independent sweep points across N worker processes "
            "(0 or 1: serial); output is byte-identical to a serial "
            "run, and a run with a monitor, fault plan or tracer "
            "installed in this process stays serial"
        ),
    )
    pool.add_argument(
        "--chunk",
        type=_at_least(1),
        default=None,
        metavar="K",
        help=(
            "points per worker task under --jobs (default: two tasks "
            "per worker, ceil(points / (2 * workers))); output is "
            "identical for every chunk size"
        ),
    )
    cache = argparse.ArgumentParser(add_help=False)
    cache.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help=(
            "content-addressed result cache directory (default: "
            "$REPRO_CACHE_DIR or .repro-cache)"
        ),
    )
    return {"full": full, "seed": seed, "pool": pool, "cache": cache}


# Command -> ("module:function" that does its work, help line, shared
# option groups, own options as (flags, keywords) pairs).
COMMANDS: dict[str, tuple[str, str, tuple[str, ...], tuple]] = {
    "run": (
        "repro.cli:run_figures",
        "run one figure, 'all' of them, or 'list' them",
        ("full", "seed", "pool"),
        (
            (("figure",), dict(
                type=_figure,
                help="figure id (see 'list'), 'all', or 'list'",
            )),
            (("--out",), dict(
                metavar="PATH",
                help="also append the reproduced table(s) to PATH",
            )),
            (("--verify",), dict(
                action="store_true",
                help=(
                    "attach the DMA-safety invariant monitor; a "
                    "violation aborts with a full event trace"
                ),
            )),
            (("--faults",), dict(
                metavar="PLAN",
                help=(
                    "JSON fault-plan file (repro.faults.FaultPlan) to "
                    "inject during the run; combine with --verify to "
                    "check safety"
                ),
            )),
            (("--metrics",), dict(
                metavar="PATH",
                help=(
                    "sample the metrics registry every "
                    f"{SAMPLE_INTERVAL_NS:.0f} simulated ns, print a "
                    "per-phase summary and write the metrics JSON to PATH"
                ),
            )),
            (("--trace",), dict(
                metavar="PATH",
                help=(
                    "record DMA, walk and invalidation spans and write "
                    "a Chrome-trace (Perfetto-loadable) JSON to PATH"
                ),
            )),
        ),
    ),
    "reproduce": (
        "repro.obs.expect.reproduce:main",
        "run figures against their paper claims and score them against "
        "the paper's curves; write REPORT.md and report.json; exit 1 "
        "when a claim fails",
        ("full", "seed", "pool", "cache"),
        (
            (("--figures",), dict(
                type=_figure_list,
                metavar="LIST",
                help=(
                    "comma-separated figure keys (e.g. fig2,fig7); "
                    "default: every figure with an expectation spec"
                ),
            )),
            (("--out",), dict(
                metavar="PATH",
                default="REPORT.md",
                help="generated markdown report path (default: REPORT.md)",
            )),
            (("--json",), dict(
                metavar="PATH",
                default="report.json",
                help="machine-readable report path (default: report.json)",
            )),
            (("--no-cache",), dict(
                action="store_true",
                help="disable the result cache for this run",
            )),
        ),
    ),
    "diff": (
        "repro.obs.expect.diffing:main",
        "compare two report.json documents; exit 1 on regressions "
        "(claims that newly fail or disappeared)",
        (),
        (
            (("old",), dict(help="baseline report.json")),
            (("new",), dict(help="candidate report.json")),
        ),
    ),
    "chaos": (
        "repro.experiments.chaos:main",
        "run random fault schedules under the invariant monitor with "
        "device recovery; delta-debug the first failing one to a "
        "minimal plan",
        ("full", "seed", "pool"),
        (
            (("--seeds",), dict(
                type=_at_least(1),
                default=25,
                metavar="N",
                help="number of random schedules to sample (default: 25)",
            )),
            (("--mode",), dict(
                default="fns",
                help="protection mode to stress (default: fns)",
            )),
            (("--flows",), dict(
                type=int,
                default=5,
                metavar="N",
                help="iperf flows per schedule (default: 5)",
            )),
            (("--mttr-bound-ns",), dict(
                type=float,
                default=DEFAULT_MTTR_BOUND_NS,
                metavar="NS",
                help=(
                    "liveness bar: worst allowed detect->resume recovery "
                    f"time (default: {DEFAULT_MTTR_BOUND_NS:.0f})"
                ),
            )),
            (("--no-recovery",), dict(
                action="store_true",
                help=(
                    "run without the reset protocol (hard faults then go "
                    "unrecovered; demonstrates shrinking)"
                ),
            )),
            (("--out",), dict(
                metavar="PATH",
                default="chaos_failure.json",
                help=(
                    "where to write the shrunken failing plan "
                    "(default: chaos_failure.json)"
                ),
            )),
        ),
    ),
    "cache": (
        "repro.cache.store:main",
        "operate on the result cache: stats, gc (evict by age, then "
        "LRU down to a byte budget) or clear",
        ("cache",),
        (
            (("action",), dict(
                choices=("stats", "gc", "clear"),
                help="what to do with the store",
            )),
            (("--max-bytes",), dict(
                type=int,
                default=None,
                metavar="N",
                help=(
                    "gc: evict least-recently-used entries beyond N "
                    "bytes (default: 1 GiB)"
                ),
            )),
            (("--max-age-days",), dict(
                type=float,
                default=None,
                metavar="D",
                help="gc: additionally evict entries older than D days",
            )),
        ),
    ),
    "analyze": (
        "repro.verify.analyze:main",
        "static determinism and DMA-protocol checks over the project "
        "model; exit 1 on findings",
        (),
        (
            (("paths",), dict(
                nargs="*",
                default=["src/repro"],
                help="files or directories to analyze (default: src/repro)",
            )),
            (("--format",), dict(
                choices=("text", "sarif"),
                default="text",
                help="output format (default: text)",
            )),
            (("--explain",), dict(
                metavar="CODE",
                help="print the rule explanation for CODE and exit",
            )),
        ),
    ),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduce figures from 'Fast & Safe IO Memory Protection' "
            "(SOSP 2024) in simulation.  A first argument that is not "
            "a command is a figure: 'repro fig2' is 'repro run fig2'."
        ),
    )
    commands = parser.add_subparsers(
        dest="command", metavar="COMMAND", required=True
    )
    shared = _shared()
    for name, (_target, text, groups, options) in COMMANDS.items():
        sub = commands.add_parser(
            name,
            help=text,
            description=text,
            parents=[shared[group] for group in groups],
        )
        for flags, keywords in options:
            sub.add_argument(*flags, **keywords)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    raw = list(sys.argv[1:] if argv is None else argv)
    if raw and raw[0] not in COMMANDS and raw[0] not in ("-h", "--help"):
        raw.insert(0, "run")
    try:
        args = _build_parser().parse_args(raw)
    except SystemExit as stop:  # --help, or a usage error already printed
        return int(stop.code or 0)
    target = COMMANDS[args.command][0]
    module, _, function = target.partition(":")
    body = getattr(importlib.import_module(module), function)
    try:
        return body(args)
    except (InvariantViolation, RemotePointError) as error:
        # A broken safety invariant, in this process or in a pool
        # worker: the event trace is the report.
        where = getattr(error, "label", args.command)
        print(f"{where}: INVARIANT VIOLATION", file=sys.stderr)
        print(error.format_trace(), file=sys.stderr)
        return 1


def _emit(text: str, out_path: Optional[str]) -> None:
    print(text)
    if out_path:
        with open(out_path, "a") as handle:
            handle.write(text + "\n")


def _list_figures() -> str:
    width = max(map(len, FIGURES))
    lines = ["available figures:"]
    for name, (_runner, description) in FIGURES.items():
        lines.append(f"  {name:{width}s} {description}")
    lines.append(f"  {'all':{width}s} run every figure")
    return "\n".join(lines)


def run_figures(args: argparse.Namespace) -> int:
    """``repro run``: run figures under the observers the flags ask for."""
    if args.figure == "list":
        print(_list_figures())
        return 0
    plan: Optional[FaultPlan] = None
    if args.faults is not None:
        try:
            plan = FaultPlan.from_file(args.faults)
        except (OSError, ValueError, KeyError) as exc:
            print(f"bad fault plan {args.faults!r}: {exc}", file=sys.stderr)
            return 2
    tracer = SpanTracer() if args.trace is not None else None
    registry = None
    if args.metrics is not None or tracer is not None:
        registry = MetricsRegistry(
            tracer=tracer,
            sample_interval_ns=(
                SAMPLE_INTERVAL_NS if args.metrics is not None else None
            ),
        )
    names = list(FIGURES) if args.figure == "all" else [args.figure]
    sweep = dict(
        scale=args.scale, seed=args.seed, jobs=args.jobs, chunk=args.chunk
    )
    with using(registry=registry):
        for name in names:
            runner, _description = FIGURES[name]
            if name == "faults":
                # The sweep runs every row under its own monitor and
                # plan (safety is the experiment); --verify only adds
                # the summary line.
                result = runner(plan=plan, **sweep)
                summary = (
                    f"{sum(row[-1] for row in result.rows)} violations "
                    f"across {len(result.rows)} rows"
                )
            else:
                monitor = InvariantMonitor() if args.verify else None
                faults = FaultRuntime(plan) if plan is not None else None
                with using(monitor=monitor, faults=faults):
                    result = runner(**sweep)
                summary = monitor.summary() if monitor is not None else ""
            _emit(result.format(), args.out)
            if args.verify:
                print(f"[verify] {name}: {summary}")
    if registry is not None and args.metrics is not None:
        headers, rows = registry.summary_rows()
        print()
        print(format_table(headers, rows))
        with open(args.metrics, "w") as handle:
            json.dump(registry.report(), handle, indent=2)
            handle.write("\n")
        print(f"\nmetrics: {args.metrics}")
    if tracer is not None:
        tracer.write(args.trace)
        print(
            f"trace:   {args.trace} ({len(tracer.events)} events, "
            f"{tracer.dropped_events} dropped past the per-phase "
            "budget; load at ui.perfetto.dev)"
        )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
