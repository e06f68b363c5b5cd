#!/usr/bin/env python3
"""Benchmark ``repro reproduce`` end to end, and layer by layer.

Run from the repository root:

    python bench/run.py [--seed N] [--repeat 3] [--trace]
    python bench/run.py --workload rx_flows --seed 3 --seconds 30 --trace 0
    python bench/run.py --compare A.json B.json

Every measurement is the real ``python -m repro reproduce`` command in
a fresh child process (``bench/child.py``), with a fresh temporary
result store and temporary report paths under ``bench/out/tmp``; the
repository's own ``.repro-cache``, ``REPORT.md`` and ``report.json``
are never written.  The workloads, metrics, units and bounds are the
ones in ``BENCHMARK.json``; see ``bench/README.md``.

Without ``--workload``, every workload runs ``--repeat`` times,
round-robin, and the set is written to ``bench/out/results.json``.
With ``--workload`` one run is made and its result is printed as the
last line of standard output, as one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
TMP = OUT / "tmp"

sys.path.insert(0, str(BENCH))
import layers  # noqa: E402
import stats  # noqa: E402
from spans import merge_states  # noqa: E402
from speed import PAD_S, SpeedProbe, measured_cpu  # noqa: E402

# workload -> figure.  Every workload runs serially (--jobs 1), so its
# child needs one of the two vCPUs; a traced run also times --jobs 2.
# A --jobs 2 workload would fill both vCPUs with pool workers and time
# how the shared host schedules them more than the program.
WORKLOADS = {
    "rx_flows": "fig7",
    "redis_ablation": "fig12",
    "rxtx_cores": "fig10",
}
# Warm reruns per cold run (each reads every cell back from the store).
# Eight, not five: on a busy host one cold run fills the whole run, and
# the median of five warm samples spread up to 0.12 across runs.
MIN_WARM = 8
# A run must finish within 180 s; children get what is left of this.
RUN_LIMIT_S = 170.0
# Units whose values are determined by the model, not by the machine:
# they must repeat exactly.
EXACT_UNITS = ("count", "ratio", "B")
EPOCH = time.perf_counter()


class SetupError(Exception):
    """The checkout lacks what the benchmark needs (exit 2, no result)."""


@dataclass
class Invocation:
    """One finished ``repro reproduce`` child process.

    ``cpu_s`` is the CPU time (user + system) of the child and of the
    processes it reaped.  ``setup_*`` run from spawn to the child's
    first ``run_points`` call (``None`` if it never made one).
    """

    rc: int
    start: float
    wall_s: float
    cpu_s: float
    setup_wall_s: Optional[float]
    setup_cpu_s: Optional[float]
    rss_mb: float
    report: Optional[dict]
    stats: dict


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise SetupError(f"missing {path}")
    return json.loads(path.read_text())


def committed_figures() -> dict[str, dict]:
    """The committed ``report.json`` sections, by figure key."""
    path = ROOT / "report.json"
    package = ROOT / "src" / "repro" / "__init__.py"
    if not path.is_file() or not package.is_file():
        raise SetupError(
            f"{ROOT} holds no repro checkout (need src/repro and report.json)"
        )
    doc = json.loads(path.read_text())
    return {section["figure"]: section for section in doc["figures"]}


def reference_curves(figure: str) -> dict:
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    from repro.obs.expectations import reference_curves as curves

    return curves(figure)


def _child_env(tmp: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    env["TMPDIR"] = str(tmp)
    # git must not look above the checkout for a repository.
    env["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    return env


def _wait(proc: subprocess.Popen, deadline: float) -> tuple[int, float, float]:
    """Reap ``proc``; ``(exit code, peak RSS in MB, CPU seconds)``.

    ``wait4`` reports the largest resident set of the child and of every
    descendant it reaped (its pool workers), and their summed CPU time.
    The child runs in its own process group, which is killed if the
    run's deadline passes or the harness is interrupted.
    """
    timer = threading.Timer(
        max(0.0, deadline - time.perf_counter()), _kill_group, (proc.pid,)
    )
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        _kill_group(proc.pid)
        proc.wait()
        raise
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (
        proc.returncode,
        usage.ru_maxrss / 1024.0,
        usage.ru_utime + usage.ru_stime,
    )


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def reproduce(
    figure: str,
    seed: int,
    store: Path,
    deadline: float,
    *,
    jobs: int = 1,
    trace: bool = False,
    cpu: Optional[int] = None,
) -> Invocation:
    """Run ``repro reproduce`` for one figure in a fresh child process.

    With ``cpu``, the child (and any process it forks) is pinned to it.
    """
    work = Path(tempfile.mkdtemp(dir=TMP))
    try:
        command = [sys.executable, str(BENCH / "child.py")]
        command += ["--stats", str(work / "stats.json")]
        if trace:
            command += ["--trace", "--epoch", repr(EPOCH)]
        command += [
            "--", "reproduce", "--figures", figure, "--jobs", str(jobs),
            "--seed", str(seed), "--cache-dir", str(store),
            "--out", str(work / "REPORT.md"), "--json", str(work / "report.json"),
        ]
        with open(work / "log.txt", "wb") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(
                command, cwd=ROOT, env=_child_env(work),
                stdout=log, stderr=subprocess.STDOUT, start_new_session=True,
            )
            if cpu is not None:
                try:
                    os.sched_setaffinity(proc.pid, {cpu})
                except OSError:  # it has already exited
                    pass
            rc, rss_mb, cpu_s = _wait(proc, deadline)
            wall = time.perf_counter() - start
        child = _read_json(work / "stats.json") or {}
        first_at, first_cpu = child.get("first_run_points") or (None, None)
        return Invocation(
            rc=rc,
            start=start,
            wall_s=wall,
            cpu_s=cpu_s,
            setup_wall_s=None if first_at is None else first_at - start,
            setup_cpu_s=first_cpu,
            rss_mb=rss_mb,
            report=_read_json(work / "report.json"),
            stats=child,
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _read_json(path: Path) -> Optional[dict]:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def micro(seed: int, deadline: float) -> Optional[dict[str, float]]:
    """``bench/micro.py``'s results, or ``None`` if it failed."""
    try:
        done = subprocess.run(
            [sys.executable, str(BENCH / "micro.py"), "--seed", str(seed), "--json"],
            cwd=ROOT, env=_child_env(TMP), capture_output=True,
            timeout=max(1.0, deadline - time.perf_counter()),
        )
    except subprocess.TimeoutExpired:
        return None
    if done.returncode != 0:
        return None
    return json.loads(done.stdout.decode().splitlines()[-1])


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------
class Checks:
    """Correctness findings plus the claim tally of one run."""

    def __init__(self, figure: str, committed: dict) -> None:
        self.figure = figure
        self.expected = committed[figure]
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def require(self, ok: bool, problem: str) -> bool:
        if not ok:
            self.problems.append(problem)
        return ok

    def section(self, inv: Invocation, label: str) -> Optional[dict]:
        """Check one invocation's exit, claims and rows; its section."""
        claims = len(self.expected["claims"])
        self.attempted += claims
        doc = inv.report
        if not self.require(
            inv.rc == 0 and doc is not None, f"{label}: exit {inv.rc}"
        ):
            self.failed += claims
            return None
        section = next(
            (s for s in doc["figures"] if s["figure"] == self.figure), None
        )
        if not self.require(section is not None, f"{label}: no {self.figure}"):
            self.failed += claims
            return None
        failed = sum(1 for c in section["claims"] if c["status"] != "pass")
        self.failed += failed
        self.require(failed == 0, f"{label}: {failed} claim(s) did not pass")
        self.require(
            section["rows"] == self.expected["rows"],
            f"{label}: rows differ from the committed report.json",
        )
        return section

    def warm(self, inv: Invocation, cold: Invocation, label: str) -> None:
        """A warm rerun computes nothing and reproduces the cold report."""
        if self.section(inv, label) is None or cold.report is None:
            return
        cache = inv.report["provenance"].get("cache", {})
        self.require(
            cache.get("cells_computed") == 0,
            f"{label}: computed {cache.get('cells_computed')} cells",
        )
        self.require(
            _without_cache(inv.report) == _without_cache(cold.report),
            f"{label}: report differs from the cold run's",
        )

    @property
    def correct(self) -> bool:
        return not self.problems


def _without_cache(doc: dict) -> dict:
    doc = json.loads(json.dumps(doc))
    doc["provenance"].pop("cache", None)
    return doc


def rows_sha256(rows: list) -> str:
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


# ----------------------------------------------------------------------
# One run of one workload
# ----------------------------------------------------------------------
def run_untraced(
    name: str, seed: int, seconds: float, committed: dict, deadline: float
) -> dict:
    """Cold reproduces, each followed by warm reruns, for ``seconds``.

    A cycle is one cold run into a fresh store plus ``MIN_WARM`` warm
    reruns against it.  Cycles repeat while another one fits in
    ``seconds``; warm reruns fill the rest.  Every child is pinned to
    one CPU, and its CPU time is scaled by the speed a
    :class:`SpeedProbe` on that CPU saw while it ran.
    """
    figure = WORKLOADS[name]
    checks = Checks(figure, committed)
    cpu = measured_cpu()
    # metric -> [(CPU seconds, start, wall seconds)]
    timed: dict[str, list] = {"cold_s": [], "warm_s": [], "setup_s": []}
    rss: list[float] = []
    rows = None
    stores: list[Path] = []

    def measure(store: Path, metric: str) -> Invocation:
        inv = reproduce(figure, seed, store, deadline, cpu=cpu)
        timed[metric].append((inv.cpu_s, inv.start, inv.wall_s))
        rss.append(inv.rss_mb)
        if checks.require(inv.setup_cpu_s is not None, "run_points never called"):
            timed["setup_s"].append((inv.setup_cpu_s, inv.start, inv.setup_wall_s))
        return inv

    with SpeedProbe(cpu) as probe:
        start = time.perf_counter()
        try:
            while True:
                cycle_start = time.perf_counter()
                stores.append(Path(tempfile.mkdtemp(dir=TMP)))
                cold = measure(stores[-1], "cold_s")
                section = checks.section(cold, "cold")
                rows = rows or (section or {}).get("rows")
                for index in range(MIN_WARM):
                    warm = measure(stores[-1], "warm_s")
                    checks.warm(warm, cold, f"warm {index + 1}")
                now = time.perf_counter()
                if not checks.correct or now - start + (now - cycle_start) > seconds:
                    break
            while checks.correct and time.perf_counter() - start < seconds:
                warm = measure(stores[-1], "warm_s")
                checks.warm(warm, cold, "warm")
            # The bursts just after the last sample belong to it too.
            time.sleep(PAD_S)
        finally:
            for store in stores:
                shutil.rmtree(store, ignore_errors=True)
    # metric -> [(CPU seconds, scale factor, wall seconds)]
    samples = {
        metric: [
            (cpu_s, probe.scale(begin, begin + wall), wall)
            for cpu_s, begin, wall in intervals
        ]
        for metric, intervals in timed.items()
    }
    bursts = probe.bursts()

    metrics = {}
    if checks.correct:
        mre = stats.paper_mre(
            committed[figure]["headers"], rows, reference_curves(figure)
        )
        metrics = end_to_end_metrics(samples, rss, mre)
    return {
        "workload": name,
        "trace": False,
        "correct": checks.correct,
        "problems": checks.problems,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
        "samples": samples,
        "reference_s": stats.summarize(bursts) if bursts else None,
        "steal_share": probe.steal_share,
        "rows_sha256": rows_sha256(rows) if rows else None,
    }


def end_to_end_metrics(
    samples: dict[str, list], rss_mb: list[float], mre: float
) -> dict[str, float]:
    """The end-to-end metrics of one run from its samples.

    ``samples`` maps each time metric to ``(CPU seconds, scale, ...)``
    tuples.  A time is the median of the run's scaled samples: the scale
    takes out the drift of the CPU's speed (see :mod:`speed`), and the
    median what is left of the bursts within a sample.
    """
    times = {
        metric: statistics.median(sample[0] * sample[1] for sample in group)
        for metric, group in samples.items()
    }
    return {
        "cold_s": times["cold_s"],
        "setup_s": times["setup_s"],
        "warm_s": times["warm_s"],
        "peak_rss_mb": max(rss_mb),
        "paper_mre": mre,
    }


def run_traced(name: str, seed: int, committed: dict, deadline: float) -> dict:
    """Untraced cold runs at 1 and 2 jobs, then a traced cold + warm run.

    The untraced runs give the wall times that the trace overhead, the
    event rate and the parallel speed-up are measured against; the
    traced pair gives every span.  Rows must be identical throughout.
    """
    figure = WORKLOADS[name]
    checks = Checks(figure, committed)
    stores = [Path(tempfile.mkdtemp(dir=TMP)) for _ in range(3)]
    try:
        walls = {}
        for store, jobs in zip(stores, (1, 2)):
            inv = reproduce(figure, seed, store, deadline, jobs=jobs)
            checks.section(inv, f"cold --jobs {jobs}")
            walls[f"jobs{jobs}"] = inv.wall_s
        traced = reproduce(figure, seed, stores[2], deadline, trace=True)
        checks.section(traced, "traced cold")
        walls["traced"] = traced.wall_s
        warm = reproduce(figure, seed, stores[2], deadline, trace=True)
        checks.warm(warm, traced, "traced warm")
        checks.require(
            warm.stats.get("counts") == traced.stats.get("counts"),
            "traced warm registry counts differ from the cold run's",
        )
        metrics, breakdown = {}, {}
        if checks.correct:
            spans = merge_states([traced.stats["spans"], warm.stats["spans"]])
            breakdown = layers.self_by_layer(spans)
            error = layers.span_accounting_error(spans)
            checks.require(
                error < 1e-6, f"cell self times miss the cell time by {error:.2e}"
            )
            micro_results = micro(seed, deadline)
            checks.require(micro_results is not None, "bench/micro.py failed")
            write_chrome_trace(name, spans["events"])
        if checks.correct:
            metrics = layers.layer_metrics(
                spans,
                traced.stats["counts"],
                traced.report["provenance"].get("cache", {}),
                warm.report["provenance"].get("cache", {}),
                walls,
                micro_results,
            )
    finally:
        for store in stores:
            shutil.rmtree(store, ignore_errors=True)
    return {
        "workload": name,
        "trace": True,
        "correct": checks.correct,
        "problems": checks.problems,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
        "self_by_layer": breakdown,
    }


def write_chrome_trace(name: str, events: list) -> None:
    (OUT / f"{name}.trace.json").write_text(json.dumps({"traceEvents": events}))


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def units(spec: dict, trace: bool) -> dict[str, str]:
    group = spec["per_layer"] if trace else spec["end_to_end"]
    return {metric["name"]: metric["unit"] for metric in group}


def result_line(run: dict, spec: dict) -> dict:
    """The one-object JSON result the benchmark prints last."""
    names = units(spec, run["trace"])
    return {
        "correct": run["correct"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {
            name: {"value": run["metrics"][name], "unit": unit}
            for name, unit in names.items()
            if name in run["metrics"]
        },
    }


def print_runs(name: str, runs: list[dict], spec: dict) -> None:
    """Every metric of one workload: median, quartiles, sample count."""
    if not runs:
        return
    trace = runs[0]["trace"]
    kind = "traced" if trace else "untraced"
    print(f"\n{name}  ({WORKLOADS[name]}; {len(runs)} {kind} run(s))")
    for metric, unit in units(spec, trace).items():
        values = [run["metrics"][metric] for run in runs if metric in run["metrics"]]
        if not values:
            print(f"  {metric:28s} (missing)")
            continue
        summary = stats.summarize(values)
        tail = summary["tail"]
        print(
            f"  {metric:28s} {_fmt(summary['median']):>14s} {unit:8s} "
            f"median of n={summary['n']} (q1 {_fmt(summary['q1'])}, "
            f"q3 {_fmt(summary['q3'])}"
            + (f", p{tail['pct']:g} {_fmt(tail['value'])})" if tail else ")")
        )
    if not trace:
        for sample in ("cold_s", "warm_s", "setup_s"):
            n = sum(len(run["samples"][sample]) for run in runs)
            print(f"  {'  ' + sample + ' samples':28s} {n}")
        bursts = [run["reference_s"]["median"] for run in runs if run["reference_s"]]
        if bursts:
            print(
                f"  {'reference burst':28s} {_fmt(statistics.median(bursts)):>14s} "
                f"s        (speed.REFERENCE_S scales times to it)"
            )
        steals = [run["steal_share"] for run in runs if run["steal_share"] is not None]
        if steals:
            print(f"  {'steal share':28s} {_fmt(statistics.median(steals)):>14s}")
        print(f"  {'rows_sha256':28s} {runs[0]['rows_sha256']}")
    else:
        breakdown = runs[-1]["self_by_layer"]
        whole = sum(breakdown.values()) or 1.0
        print("  self time by layer: " + ", ".join(
            f"{layer} {own / whole:.0%}" for layer, own in breakdown.items()
        ))
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    print(f"  {'claims failed/attempted':28s} {failed}/{attempted}")
    for run in runs:
        for problem in run["problems"]:
            print(f"  FAILED CHECK: {problem}")


def _fmt(value: float) -> str:
    """Whole numbers in full, others to six significant digits."""
    return str(int(value)) if float(value).is_integer() else f"{value:.6g}"


def compare(path_a: Path, path_b: Path, spec: dict) -> int:
    """Agreement of two result sets, metric by metric; 1 on a regression."""
    sets = [json.loads(Path(p).read_text()) for p in (path_a, path_b)]
    metrics = [(m, False) for m in spec["end_to_end"]]
    metrics += [(m, True) for m in spec["per_layer"]]
    regressed = False
    for name in WORKLOADS:
        runs = [s["workloads"].get(name, {}) for s in sets]
        print(f"\n{name}")
        for metric, traced in metrics:
            key = "traced" if traced else "runs"
            series = [
                [r["metrics"][metric["name"]] for r in w.get(key, [])
                 if metric["name"] in r["metrics"]]
                for w in runs
            ]
            if not all(series):
                continue
            verdict, change = stats.compare_metric(
                series[0], series[1],
                better=metric["better"],
                bound=metric.get("bound"),
                exact=metric["unit"] in EXACT_UNITS,
            )
            regressed |= verdict in ("worse", "differs")
            print(
                f"  {metric['name']:28s} {verdict:10s} "
                f"{_fmt(statistics.median(series[0]))} -> "
                f"{_fmt(statistics.median(series[1]))} {metric['unit']} "
                f"({change:+.1%}; n={len(series[0])}/{len(series[1])})"
            )
        tallies = [
            [(r["failed"], r["attempted"]) for r in w.get("runs", [])] for w in runs
        ]
        if all(tallies):
            fractions = [[f / a for f, a in t] for t in tallies]
            verdict, _ = stats.compare_metric(
                fractions[0], fractions[1], better="lower", bound=None, exact=True
            )
            regressed |= verdict == "differs"
            print(f"  {'claims_failed_frac':28s} {verdict}")
    return 1 if regressed else 0


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="bench/run.py", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=0.0,
        help="measure each run for at least this long (default: one cycle)",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="per-layer metrics from a traced run",
    )
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    try:
        spec = load_spec()
        if args.compare:
            return compare(*args.compare, spec)
        committed = committed_figures()
    except SetupError as error:
        print(f"bench/run.py: {error}", file=sys.stderr)
        return 2
    TMP.mkdir(parents=True, exist_ok=True)
    # Byte-compile once, outside every measurement.
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(ROOT / "src" / "repro")],
        check=True,
    )
    names = [args.workload] if args.workload else list(WORKLOADS)
    results = {name: {"runs": [], "traced": []} for name in names}

    def run(name: str, traced: bool) -> None:
        deadline = time.perf_counter() + RUN_LIMIT_S
        if traced:
            outcome = run_traced(name, args.seed, committed, deadline)
        else:
            outcome = run_untraced(
                name, args.seed, args.seconds, committed, deadline
            )
        results[name]["traced" if traced else "runs"].append(outcome)

    try:
        if args.workload:
            run(args.workload, bool(args.trace))
        else:
            # Round-robin, so slow drifts in machine speed spread evenly.
            for _ in range(args.repeat):
                for name in names:
                    run(name, False)
            for name in names if args.trace else ():
                run(name, True)
    finally:
        shutil.rmtree(TMP, ignore_errors=True)
    (OUT / "results.json").write_text(
        json.dumps({"seed": args.seed, "workloads": results}, indent=1)
    )
    every = []
    for name in names:
        for key in ("runs", "traced"):
            print_runs(name, results[name][key], spec)
            every += results[name][key]
    correct = all(outcome["correct"] for outcome in every)
    if args.workload:
        print(json.dumps(result_line(every[0], spec)))
    else:
        print(
            f"\nresults: {OUT / 'results.json'}; "
            f"checks {'passed' if correct else 'FAILED'}"
        )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
