"""Command-line interface: reproduce any figure without writing code.

Usage::

    python -m repro list                 # what can be reproduced
    python -m repro fig2                 # run Fig 2 at the quick scale
    python -m repro fig9 --full          # full-length run
    python -m repro fig12 --out out.txt  # also write the table to a file
    python -m repro all                  # every figure, quick scale
    python -m repro run fig7 --verify    # run with the invariant monitor
    python -m repro fig2 --trace t.json  # also export a Perfetto trace
    python -m repro analyze src/repro    # static determinism/DMA-safety checks
    python -m repro faults --seed 2      # fault sweep (safety under faults)
    python -m repro chaos --seeds 50     # random schedules + shrinking
    python -m repro run fig7 --faults plan.json --verify
    python -m repro report fig2          # metrics JSON + summary table
    python -m repro publish out/         # publication figures + index.html
    python -m repro publish out/ --figures fig2,fig9 --format svg
    python -m repro reproduce            # claims gate -> REPORT.md + report.json
    python -m repro reproduce --figures fig2,fig7 --jobs 4
    python -m repro diff old.json new.json   # report.json regression gate
    python -m repro profile fig2         # cProfile hotspots for one figure
    python -m repro cache stats          # result-cache operability
    python -m repro cache gc --max-bytes 268435456

Each command prints the reproduced table (the same rows the paper's
figure plots) and exits 0.  ``--jobs N`` fans a figure's independent
sweep points across a process pool (:mod:`repro.parallel`); results
are byte-identical to a serial run.  Under ``--verify`` every simulated event is
additionally checked against the DMA-safety invariants
(:mod:`repro.verify`); a violation aborts the run with a full event
trace and exit code 1.  ``report`` runs a figure with the observability
layer (:mod:`repro.obs`) installed and writes a metrics time-series
document plus (optionally) a Chrome-trace file loadable in Perfetto.
``reproduce`` runs figures against their paper-claims expectation specs
(:mod:`repro.obs.expect`) and regenerates ``REPORT.md``/``report.json``,
exiting nonzero on any violated claim; ``diff`` compares two generated
``report.json`` documents and fails on regressions.  Simulator speed is
measured by the separate benchmark of ``reproduce`` (``bench/run.py``).
``reproduce`` consults the content-addressed result cache
(:mod:`repro.cache`; default ``.repro-cache/``, see ``--cache-dir`` /
``--no-cache``), so unchanged cells are served from the store, and
``cache`` exposes store operability (``stats``/``gc``/``clear``).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Optional

from .experiments import (
    DEFAULT_MTTR_BOUND_NS,
    FULL,
    QUICK,
    fault_sweep,
    fig2_flows,
    fig3_ring,
    fig7_fns_flows,
    fig8_fns_ring,
    fig9_rpc_latency,
    fig10_rxtx,
    fig11_nginx,
    fig11_redis,
    fig11_spdk,
    fig12_ablation,
    model_fit,
)
from .context import using
from .faults import FaultPlan, FaultRuntime
from .obs import MetricsRegistry, SpanTracer
from .parallel import RemotePointError
from .verify import InvariantMonitor, InvariantViolation

__all__ = ["main", "FIGURES"]

FIGURES: dict[str, tuple[Callable, str]] = {
    "fig2": (fig2_flows, "Linux strict vs IOMMU off, varying flows"),
    "fig3": (fig3_ring, "Linux strict vs IOMMU off, varying ring size"),
    "model": (model_fit, "Section 2.2 analytic throughput model"),
    "fig7": (fig7_fns_flows, "F&S vs strict vs off, varying flows"),
    "fig8": (fig8_fns_ring, "F&S under increasing ring sizes"),
    "fig9": (fig9_rpc_latency, "RPC tail latency under colocation"),
    "fig10": (fig10_rxtx, "Concurrent Rx/Tx interference (Ice Lake)"),
    "fig11a": (fig11_redis, "Redis SET throughput"),
    "fig11b": (fig11_nginx, "Nginx throughput"),
    "fig11c": (fig11_spdk, "SPDK remote read throughput"),
    "fig12": (fig12_ablation, "Ablation: each F&S idea is necessary"),
    "faults": (fault_sweep, "Fault sweep: throughput degrades, safety holds"),
}

DEFAULT_SAMPLE_INTERVAL_NS = 100_000.0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduce figures from 'Fast & Safe IO Memory Protection' "
            "(SOSP 2024) in simulation."
        ),
    )
    parser.add_argument(
        "figure",
        help="figure id (see 'list'), 'all', or 'list'",
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="full-length runs (benchmark scale) instead of quick",
    )
    parser.add_argument(
        "--out",
        metavar="PATH",
        default=None,
        help="also append the reproduced table(s) to this file",
    )
    parser.add_argument(
        "--verify",
        action="store_true",
        help=(
            "attach the DMA-safety invariant monitor to the run; "
            "violations abort with a full event trace"
        ),
    )
    parser.add_argument(
        "--faults",
        metavar="PLAN",
        default=None,
        help=(
            "JSON fault-plan file (repro.faults.FaultPlan) to inject "
            "during the run; combine with --verify to check safety"
        ),
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=1,
        metavar="N",
        help="fault-plan seed for the built-in 'faults' sweep",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help=(
            "export a Chrome-trace (Perfetto-loadable) JSON of DMA, "
            "walk and invalidation spans to PATH"
        ),
    )
    _add_jobs_argument(parser)
    _add_cache_arguments(parser, default_on=False)
    return parser


def _add_jobs_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help=(
            "fan independent sweep points across N worker processes; "
            "results are byte-identical to a serial run (runs serially "
            "under --verify/--faults/--trace, which need one process)"
        ),
    )
    parser.add_argument(
        "--chunk",
        type=int,
        default=None,
        metavar="K",
        help=(
            "points per worker task under --jobs (default: auto, "
            "points / (4 * workers)); results are identical for every "
            "chunk size"
        ),
    )


def _build_report_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro report",
        description=(
            "Run a figure with the observability layer installed and "
            "emit a metrics JSON document plus a per-phase summary."
        ),
    )
    parser.add_argument("figure", help="figure id (see 'repro list')")
    parser.add_argument(
        "--full",
        action="store_true",
        help="full-length runs instead of quick",
    )
    parser.add_argument(
        "--out",
        metavar="PATH",
        default=None,
        help="metrics JSON path (default: <figure>_metrics.json)",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="Chrome-trace JSON path (default: <figure>_trace.json)",
    )
    parser.add_argument(
        "--interval-ns",
        type=float,
        default=DEFAULT_SAMPLE_INTERVAL_NS,
        metavar="NS",
        help="metrics sampling interval in simulated ns",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=1,
        metavar="N",
        help="fault-plan seed (only used by the 'faults' figure)",
    )
    _add_jobs_argument(parser)
    _add_cache_arguments(parser, default_on=False)
    return parser


def _build_reproduce_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro reproduce",
        description=(
            "Run figures against their paper-claims expectation specs "
            "and generate REPORT.md + report.json; exits 1 when any "
            "claim is violated."
        ),
    )
    parser.add_argument(
        "--figures",
        metavar="LIST",
        default=None,
        help=(
            "comma-separated figure keys (e.g. fig2,fig7); default: "
            "every figure with an expectation spec"
        ),
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="full-length runs instead of quick",
    )
    parser.add_argument(
        "--out",
        metavar="PATH",
        default="REPORT.md",
        help="generated markdown report path (default: REPORT.md)",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default="report.json",
        help="machine-readable report path (default: report.json)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=1,
        metavar="N",
        help="run seed recorded in the provenance manifest",
    )
    _add_jobs_argument(parser)
    _add_cache_arguments(parser, default_on=True)
    return parser


def _add_cache_arguments(
    parser: argparse.ArgumentParser, default_on: bool
) -> None:
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help=(
            "content-addressed result cache directory (default: "
            "$REPRO_CACHE_DIR or .repro-cache)"
        ),
    )
    if default_on:
        parser.add_argument(
            "--no-cache",
            action="store_true",
            help="disable the result cache for this run",
        )
    else:
        parser.add_argument(
            "--cache",
            action="store_true",
            help=(
                "serve unchanged sweep cells from the content-addressed "
                "result cache (repro.cache) and store computed ones"
            ),
        )


def _cache_from_args(args: argparse.Namespace, default_on: bool):
    """The ResultCache an invocation asked for, or ``None``."""
    from .cache.store import ResultCache

    if default_on:
        if getattr(args, "no_cache", False):
            return None
    elif not getattr(args, "cache", False):
        return None
    return ResultCache(args.cache_dir)


def _build_profile_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro profile",
        description=(
            "Run one figure under cProfile and print the hottest "
            "functions by cumulative time.  Always runs serially: a "
            "process pool would move the interesting work out of the "
            "profiled process."
        ),
    )
    parser.add_argument("figure", help="figure id (see 'repro list')")
    parser.add_argument(
        "--full",
        action="store_true",
        help="full-length runs instead of quick",
    )
    parser.add_argument(
        "--lines",
        type=int,
        default=25,
        metavar="N",
        help="number of stats rows to print (default: 25)",
    )
    parser.add_argument(
        "--sort",
        default="cumulative",
        metavar="KEY",
        help="pstats sort key (default: cumulative; e.g. tottime)",
    )
    parser.add_argument(
        "--out",
        metavar="PATH",
        default=None,
        help="also dump raw pstats data to PATH (for snakeviz etc.)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=1,
        metavar="N",
        help="sweep seed (matches 'repro <figure> --seed')",
    )
    return parser


def _build_diff_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro diff",
        description=(
            "Compare two report.json documents and exit 1 on "
            "regressions (claims that newly fail or disappeared)."
        ),
    )
    parser.add_argument("old", help="baseline report.json")
    parser.add_argument("new", help="candidate report.json")
    return parser


def _build_chaos_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro chaos",
        description=(
            "Sample N random fault schedules (transient + hard faults) "
            "and run each under the invariant monitor with device "
            "recovery enabled.  A schedule fails on any safety "
            "violation, an unrecovered wedge, or an MTTR above the "
            "bound; the first failing schedule is delta-debugged to a "
            "minimal repro plan and written as JSON."
        ),
    )
    parser.add_argument(
        "--seeds",
        type=int,
        default=25,
        metavar="N",
        help="number of random schedules to sample (default: 25)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=1,
        metavar="N",
        help="root seed for schedule sampling (default: 1)",
    )
    parser.add_argument(
        "--mode",
        default="fns",
        help="protection mode to stress (default: fns)",
    )
    parser.add_argument(
        "--flows",
        type=int,
        default=5,
        metavar="N",
        help="iperf flows per schedule (default: 5)",
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="full-length runs instead of quick",
    )
    parser.add_argument(
        "--mttr-bound-ns",
        type=float,
        default=DEFAULT_MTTR_BOUND_NS,
        metavar="NS",
        help=(
            "liveness bar: worst allowed detect->resume recovery time "
            f"(default: {DEFAULT_MTTR_BOUND_NS:.0f})"
        ),
    )
    parser.add_argument(
        "--no-recovery",
        action="store_true",
        help=(
            "run without the reset protocol (hard faults then go "
            "unrecovered; demonstrates shrinking)"
        ),
    )
    parser.add_argument(
        "--out",
        metavar="PATH",
        default="chaos_failure.json",
        help=(
            "where to write the shrunken failing plan "
            "(default: chaos_failure.json)"
        ),
    )
    _add_jobs_argument(parser)
    return parser


def _run_chaos(raw: list[str]) -> int:
    from .experiments.chaos import replay_fails, run_chaos, shrink_plan

    args = _build_chaos_parser().parse_args(raw)
    scale = FULL if args.full else QUICK
    result, failures = run_chaos(
        seeds=args.seeds,
        root_seed=args.seed,
        mode=args.mode,
        flows=args.flows,
        scale=scale,
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
        scale,
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


def _run_reproduce(raw: list[str]) -> int:
    from .obs.expect.reproduce import run_reproduce

    args = _build_reproduce_parser().parse_args(raw)
    figures = None
    if args.figures is not None:
        figures = [f.strip() for f in args.figures.split(",") if f.strip()]
    scale = FULL if args.full else QUICK
    try:
        return run_reproduce(
            figures,
            scale=scale,
            seed=args.seed,
            jobs=args.jobs,
            chunk=args.chunk,
            report_path=args.out,
            json_path=args.json,
            cache=_cache_from_args(args, default_on=True),
        )
    except RemotePointError as error:
        print(f"{error.label}: WORKER FAILURE", file=sys.stderr)
        print(error.format_trace(), file=sys.stderr)
        return 1


def _run_diff(raw: list[str]) -> int:
    from .obs.expect.diffing import diff_documents

    args = _build_diff_parser().parse_args(raw)
    docs = []
    for path in (args.old, args.new):
        try:
            with open(path) as handle:
                docs.append(json.load(handle))
        except (OSError, ValueError) as exc:
            print(f"cannot read {path!r}: {exc}", file=sys.stderr)
            return 2
    try:
        result = diff_documents(docs[0], docs[1])
    except ValueError as exc:
        print(f"cannot diff: {exc}", file=sys.stderr)
        return 2
    print(result.format())
    return 0 if result.ok else 1


def _emit(text: str, out_path: Optional[str]) -> None:
    print(text)
    if out_path:
        with open(out_path, "a") as handle:
            handle.write(text + "\n")


def _list_figures() -> str:
    lines = ["available figures:"]
    for name, (_fn, description) in FIGURES.items():
        lines.append(f"  {name:8s} {description}")
    lines.append("  all      run every figure")
    return "\n".join(lines)


def _run_figure(
    name: str,
    scale,
    verify: bool,
    out_path: Optional[str],
    seed: int = 1,
    plan: Optional[FaultPlan] = None,
    jobs: Optional[int] = None,
    chunk: Optional[int] = None,
) -> int:
    runner, _description = FIGURES[name]
    if name == "faults":
        # The sweep runs every row under its own monitor (safety is
        # the experiment); --verify only changes the summary line.
        try:
            result = runner(
                scale=scale, seed=seed, plan=plan, jobs=jobs, chunk=chunk
            )
        except (InvariantViolation, RemotePointError) as violation:
            print(f"{name}: INVARIANT VIOLATION", file=sys.stderr)
            print(violation.format_trace(), file=sys.stderr)
            return 1
        _emit(result.format(), out_path)
        if verify:
            total = sum(row[-1] for row in result.rows)
            print(
                f"[verify] faults: {total} violations across "
                f"{len(result.rows)} rows"
            )
        return 0
    faults = FaultRuntime(plan) if plan is not None else None
    if not verify:
        # run_points falls back to serial by itself when a fault plan
        # or tracer is installed; jobs only fans out the clean path.
        with using(faults=faults):
            result = runner(scale=scale, seed=seed, jobs=jobs, chunk=chunk)
        _emit(result.format(), out_path)
        return 0
    monitor = InvariantMonitor()
    try:
        with using(monitor=monitor, faults=faults):
            result = runner(scale=scale, seed=seed, jobs=jobs, chunk=chunk)
    except InvariantViolation as violation:
        print(f"{name}: INVARIANT VIOLATION", file=sys.stderr)
        print(violation.format_trace(), file=sys.stderr)
        return 1
    _emit(result.format(), out_path)
    print(f"[verify] {name}: {monitor.summary()}")
    return 0


def _run_report(raw: list[str]) -> int:
    from .analysis.report import format_table

    args = _build_report_parser().parse_args(raw)
    if args.figure not in FIGURES:
        print(f"unknown figure {args.figure!r}\n\n{_list_figures()}",
              file=sys.stderr)
        return 2
    scale = FULL if args.full else QUICK
    metrics_path = args.out or f"{args.figure}_metrics.json"
    trace_path = args.trace or f"{args.figure}_trace.json"
    # Spans cannot merge across processes, so a multi-job report keeps
    # the metrics registry (phases are adopted from workers) but skips
    # the tracer; a tracer would force run_points serial anyway.
    # A cached report keeps the metrics registry too (phases are
    # adopted from the store like worker payloads), but has no spans
    # to serve, so --cache implies the no-tracer path as --jobs does.
    cache = _cache_from_args(args, default_on=False)
    parallel = args.jobs is not None and args.jobs > 1
    registry = MetricsRegistry(
        tracer=None if parallel or cache is not None else SpanTracer(),
        sample_interval_ns=args.interval_ns,
    )
    runner, _description = FIGURES[args.figure]
    try:
        with using(cache=cache, registry=registry):
            result = runner(
                scale=scale, seed=args.seed, jobs=args.jobs,
                chunk=args.chunk,
            )
    except RemotePointError as error:
        print(f"{error.label}: WORKER FAILURE", file=sys.stderr)
        print(error.format_trace(), file=sys.stderr)
        return 1
    print(result.format())
    headers, rows = registry.summary_rows()
    print()
    print(format_table(headers, rows))
    if cache is not None:
        print(f"\ncache:   {cache.stats.summary()} ({cache.directory})")
    with open(metrics_path, "w") as handle:
        json.dump(registry.report(), handle, indent=2)
        handle.write("\n")
    print(f"\nmetrics: {metrics_path}")
    if registry.tracer is not None:
        registry.tracer.write(trace_path)
        print(
            f"trace:   {trace_path} "
            f"({len(registry.tracer.events)} events; "
            "load at ui.perfetto.dev)"
        )
    else:
        print("trace:   skipped (--jobs > 1; spans are per-process)")
    return 0


def _run_profile(raw: list[str]) -> int:
    import cProfile
    import io
    import pstats

    args = _build_profile_parser().parse_args(raw)
    if args.figure not in FIGURES:
        print(f"unknown figure {args.figure!r}\n\n{_list_figures()}",
              file=sys.stderr)
        return 2
    scale = FULL if args.full else QUICK
    runner, _description = FIGURES[args.figure]
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = runner(scale=scale, seed=args.seed)
    finally:
        profiler.disable()
    print(result.format())
    print()
    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    try:
        stats.sort_stats(args.sort)
    except KeyError:
        print(f"unknown sort key {args.sort!r}", file=sys.stderr)
        return 2
    stats.print_stats(args.lines)
    print(stream.getvalue().rstrip())
    if args.out:
        stats.dump_stats(args.out)
        print(f"\nraw stats: {args.out}")
    return 0


def _build_cache_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro cache",
        description=(
            "Operate on the content-addressed result cache: stats "
            "(entries/bytes), gc (evict by age, then LRU down to a byte "
            "budget), clear (drop everything)."
        ),
    )
    parser.add_argument(
        "action",
        choices=("stats", "gc", "clear"),
        help="what to do with the store",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help=(
            "cache directory (default: $REPRO_CACHE_DIR or .repro-cache)"
        ),
    )
    parser.add_argument(
        "--max-bytes",
        type=int,
        default=None,
        metavar="N",
        help="gc: evict least-recently-used entries beyond N bytes "
             "(default: 1 GiB)",
    )
    parser.add_argument(
        "--max-age-days",
        type=float,
        default=None,
        metavar="D",
        help="gc: additionally evict entries older than D days",
    )
    return parser


def _run_cache(raw: list[str]) -> int:
    from .cache.store import DEFAULT_GC_MAX_BYTES, ResultCache

    args = _build_cache_parser().parse_args(raw)
    cache = ResultCache(args.cache_dir)
    if args.action == "stats":
        disk = cache.disk_stats()
        print(f"cache:   {cache.directory}")
        print(f"entries: {disk['entries']}")
        print(f"bytes:   {disk['bytes']}")
        return 0
    if args.action == "clear":
        result = cache.clear()
        print(
            f"cleared {result['evicted']} entries "
            f"({result['freed_bytes']} bytes) from {cache.directory}"
        )
        return 0
    budget = (
        args.max_bytes if args.max_bytes is not None else DEFAULT_GC_MAX_BYTES
    )
    result = cache.gc(max_bytes=budget, max_age_days=args.max_age_days)
    print(
        f"gc: evicted {result['evicted']} entries "
        f"({result['freed_bytes']} bytes freed, "
        f"{result['remaining_bytes']} bytes remain) in {cache.directory}"
    )
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    raw = list(sys.argv[1:]) if argv is None else list(argv)
    if raw and raw[0] == "analyze":
        from .verify.analyze import main as analyze_main

        return analyze_main(raw[1:])
    if raw and raw[0] == "report":
        return _run_report(raw[1:])
    if raw and raw[0] == "reproduce":
        return _run_reproduce(raw[1:])
    if raw and raw[0] == "chaos":
        return _run_chaos(raw[1:])
    if raw and raw[0] == "diff":
        return _run_diff(raw[1:])
    if raw and raw[0] == "profile":
        return _run_profile(raw[1:])
    if raw and raw[0] == "cache":
        return _run_cache(raw[1:])
    if raw and raw[0] == "publish":
        from .obs.publish.cli import main as publish_main

        return publish_main(raw[1:])
    if raw and raw[0] == "run":
        # ``repro run fig7 --verify`` is an alias for ``repro fig7``.
        raw = raw[1:]
    args = _build_parser().parse_args(raw)
    if args.figure == "list":
        print(_list_figures())
        return 0
    scale = FULL if args.full else QUICK
    plan: Optional[FaultPlan] = None
    if args.faults is not None:
        try:
            plan = FaultPlan.from_file(args.faults)
        except (OSError, ValueError, KeyError) as exc:
            print(f"bad fault plan {args.faults!r}: {exc}", file=sys.stderr)
            return 2
    if args.figure == "all":
        names = list(FIGURES)
    elif args.figure in FIGURES:
        names = [args.figure]
    else:
        print(f"unknown figure {args.figure!r}\n\n{_list_figures()}",
              file=sys.stderr)
        return 2
    # A global --trace wraps the whole run in a tracer-only registry
    # (spans without periodic metric sampling).
    registry: Optional[MetricsRegistry] = None
    if args.trace is not None:
        registry = MetricsRegistry(tracer=SpanTracer())
    # --cache serves unchanged sweep cells from the store.  run_points
    # bypasses it by itself under a tracer/monitor/fault plan, so the
    # combination with --trace or --verify degrades to a plain run.
    cache = _cache_from_args(args, default_on=False)
    with using(cache=cache, registry=registry):
        for name in names:
            status = _run_figure(
                name, scale, args.verify, args.out, seed=args.seed,
                plan=plan, jobs=args.jobs, chunk=args.chunk,
            )
            if status:
                return status
    if cache is not None:
        print(f"cache: {cache.stats.summary()} ({cache.directory})")
    if registry is not None:
        registry.tracer.write(args.trace)
        print(
            f"trace: {args.trace} ({len(registry.tracer.events)} events; "
            "load at ui.perfetto.dev)"
        )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
