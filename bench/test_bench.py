"""Fast self-tests of the benchmark harness (no workload is run).

    python -m pytest bench -q
"""

from __future__ import annotations

import inspect
import json
import statistics
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import micro  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import stats  # noqa: E402
from spans import SpanRecorder, merge_states  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


class FakeClock:
    """A clock the code under test advances explicitly."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def work(self, seconds: float) -> None:
        self.now += seconds


# ----------------------------------------------------------------------
# Span accounting
# ----------------------------------------------------------------------
def test_nested_spans_split_self_time():
    clock = FakeClock()
    recorder = SpanRecorder(checked=("a.outer",), clock=clock)
    inner = recorder.wrap("b.inner", lambda: clock.work(2.0))

    def body():
        clock.work(1.0)
        inner()
        inner()
        clock.work(0.5)

    recorder.wrap("a.outer", body)()
    state = recorder.state()
    assert state["stats"]["a.outer"] == [1, 5.5, 1.5]
    assert state["stats"]["b.inner"] == [2, 4.0, 4.0]
    assert state["checks"] == [[5.5, 5.5]]
    assert layers.span_accounting_error(state) == 0.0


def test_recursive_span_total_counts_outermost_call_only():
    clock = FakeClock()
    recorder = SpanRecorder(checked=("x.rec",), clock=clock)

    def rec(depth):
        clock.work(1.0)
        if depth:
            traced(depth - 1)

    traced = recorder.wrap("x.rec", rec)
    traced(2)
    count, total, own = recorder.state()["stats"]["x.rec"]
    assert (count, total, own) == (3, 3.0, 3.0)
    # Every level's self time plus what it contains equals its duration.
    assert recorder.state()["checks"] == [[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]


def test_layer_time_counts_outermost_in_layer_and_within_span():
    clock = FakeClock()
    recorder = SpanRecorder(within="host.setup", clock=clock)
    tree = recorder.wrap("iova.rbtree", lambda: clock.work(1.0))

    def rcache():
        clock.work(1.0)
        tree()

    cache = recorder.wrap("iova.rcache", rcache)
    recorder.wrap("host.setup", cache)()
    cache()
    assert recorder.state()["layers"]["iova"] == [4.0, 2.0]


def test_span_closes_on_exception():
    clock = FakeClock()
    recorder = SpanRecorder(clock=clock)

    def boom():
        clock.work(1.0)
        raise ValueError

    traced = recorder.wrap("a.boom", boom)
    with pytest.raises(ValueError):
        traced()
    assert recorder.state()["stats"]["a.boom"] == [1, 1.0, 1.0]


def test_patch_wraps_methods_and_table_entries_keeping_signatures():
    class Target:
        def method(self, jobs=None):
            return jobs

    table = {"k": lambda: 2}
    recorder = SpanRecorder()
    recorder.patch(Target, "method", "t.method")
    recorder.patch(table, "k", "t.k")
    assert Target().method(jobs=3) == 3 and table["k"]() == 2
    assert recorder.state()["stats"]["t.method"][0] == 1
    # The reproduce driver inspects runner signatures for ``jobs``.
    assert "jobs" in inspect.signature(Target.method).parameters


def test_merge_states_sums_processes():
    a = SpanRecorder(keep=("c.cell",))
    a.wrap("c.cell", lambda: None)()
    a.add("sim.events", 3)
    merged = merge_states([a.state(), a.state()])
    assert merged["stats"]["c.cell"][0] == 2
    assert len(merged["kept"]["c.cell"]) == 2
    assert merged["counters"]["sim.events"] == 6


# ----------------------------------------------------------------------
# Reporting rule and accuracy metric
# ----------------------------------------------------------------------
def test_summary_reports_tail_only_with_ten_samples_beyond_it():
    assert stats.summarize([3.0, 1.0, 2.0])["tail"] is None
    assert stats.summarize([1.0] * 99)["tail"] is None
    hundred = stats.summarize([float(i) for i in range(100)])
    assert hundred["n"] == 100 and hundred["tail"]["pct"] == 90.0
    assert stats.summarize([0.0] * 1000)["tail"]["pct"] == 99.0
    small = stats.summarize([4.0, 1.0, 3.0, 2.0, 5.0])
    assert (small["median"], small["n"]) == (3.0, 5)


def test_spread_is_interquartile_share_of_median():
    assert stats.spread([10.0]) == 0.0
    values = [9.0, 10.0, 11.0, 12.0, 8.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert stats.spread(values) == pytest.approx((q3 - q1) / 10.0)


def test_paper_mre_ignores_unmatched_points_and_zero_bases():
    headers = ["mode", "flows", "gbps", "m3/pg"]
    rows = [["off", 5, 100.0, 0.0], ["fns", 5, 90.0, 0.05]]
    curves = {
        "gbps": {"off": [(5, 80.0), (40, 70.0)], "fns": [(5, 100.0)]},
        "m3/pg": {"off": [(5, 0.0)], "fns": [(5, 0.1)]},
        "missing": {"off": [(5, 1.0)]},
    }
    # off@5: 0.25, fns@5: 0.1, fns m3@5: 0.5; off@40 and the 0 base skip.
    assert stats.paper_mre(headers, rows, curves) == pytest.approx(0.85 / 3)
    assert stats.paper_mre(headers, rows, {"gbps": {"strict": [(5, 1.0)]}}) is None


# ----------------------------------------------------------------------
# Metric names
# ----------------------------------------------------------------------
def _names(group: str) -> set[str]:
    return {metric["name"] for metric in SPEC[group]}


SAMPLES = {
    "cold_s": [(2.0, 1.0)],
    "warm_s": [(1.0, 1.0)],
    "setup_s": [(0.5, 1.0)],
}


def test_end_to_end_metrics_match_benchmark_json():
    metrics = run.end_to_end_metrics(SAMPLES, [300.0], 0.2)
    assert set(metrics) == _names("end_to_end")


def test_end_to_end_times_are_medians_of_scaled_samples():
    samples = {
        "cold_s": [(10.0, 1.0), (20.0, 0.5), (40.0, 0.5)],
        "warm_s": [(1.0, 2.0), (3.0, 1.0)],
        "setup_s": [(0.5, 1.0)],
    }
    metrics = run.end_to_end_metrics(samples, [300.0, 310.0], 0.2)
    assert metrics["cold_s"] == 10.0
    assert metrics["warm_s"] == 2.5
    assert metrics["peak_rss_mb"] == 310.0


# ----------------------------------------------------------------------
# Machine speed
# ----------------------------------------------------------------------
def test_speed_scale_is_reference_over_bursts_near_the_sample():
    probe = speed.SpeedProbe(speed.measured_cpu())
    # Bursts at 1 s intervals: the machine halves its speed after t=10.
    probe._times = [float(t) for t in range(20)]
    probe._bursts = [speed.REFERENCE_S] * 10 + [2 * speed.REFERENCE_S] * 10
    assert probe.scale(2.0, 6.0) == pytest.approx(1.0)
    assert probe.scale(13.0, 17.0) == pytest.approx(0.5)
    # Across the change, the mean burst: a slow spell counts by its length.
    assert probe.scale(7.0, 12.0) == pytest.approx(1 / 1.5)
    # A short sample borrows the nearest MIN_BURSTS bursts.
    assert probe.scale(16.0, 16.01) == pytest.approx(0.5)


def test_speed_probe_thread_times_bursts_and_stops():
    with speed.SpeedProbe(speed.measured_cpu(), period_s=0.001) as probe:
        while len(probe.bursts()) < 3:
            time.sleep(0.01)
    assert not probe._thread.is_alive()
    assert all(burst > 0 for burst in probe.bursts())
    assert speed.reference_burst() == speed.reference_burst()


def test_per_layer_metrics_match_benchmark_json():
    empty = merge_states([])
    walls = {"jobs1": 2.0, "jobs2": 1.0, "traced": 3.0}
    micro_results = {name: 1.0 for name in micro.BENCHMARKS}
    metrics = layers.layer_metrics(empty, {}, {}, {}, walls, micro_results)
    assert set(metrics) == _names("per_layer")


def test_result_line_has_exactly_the_result_keys():
    outcome = {
        "trace": False,
        "correct": True,
        "attempted": 10,
        "failed": 0,
        "metrics": run.end_to_end_metrics(SAMPLES, [300.0], 0.2),
    }
    line = run.result_line(outcome, SPEC)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == _names("end_to_end")
    assert line["metrics"]["cold_s"] == {"value": 2.0, "unit": "s"}


def test_benchmark_json_shape():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}


# ----------------------------------------------------------------------
# --compare
# ----------------------------------------------------------------------
def verdict(base, new, bound=0.1, better="lower", exact=False):
    return stats.compare_metric(
        base, new, better=better, bound=bound, exact=exact
    )[0]


def test_compare_within_bound_agrees():
    assert verdict([10.0, 10.1, 9.9], [10.5, 10.4, 10.6]) == "agree"


def test_compare_flags_regressions_in_the_metric_direction():
    assert verdict([10.0, 10.1, 9.9], [12.0, 12.1, 11.9]) == "worse"
    assert verdict([10.0, 10.1, 9.9], [8.0, 8.1, 7.9]) == "better"
    assert verdict([10.0] * 3, [8.0] * 3, better="higher") == "worse"


def test_compare_is_unresolved_when_a_set_is_noisier_than_the_bound():
    noisy = [8.0, 10.0, 12.0, 14.0, 9.0]
    assert verdict(noisy, [12.5, 12.0, 12.4]) == "unresolved"
    # ...unless every new run is worse (or better) than every base run.
    assert verdict(noisy, [20.0, 21.0, 22.0]) == "worse"
    assert verdict(noisy, [5.0, 6.0, 6.5]) == "better"


def test_compare_exact_metrics_must_repeat_exactly():
    assert verdict([5, 5], [5, 5, 5], exact=True) == "same"
    assert verdict([5, 5], [5, 6], exact=True) == "differs"
    assert verdict([1.0], [2.0], bound=None) == "info"


def test_compare_command_exit_status(tmp_path):
    def result_set(wall, count):
        runs = [
            {"metrics": {"cold_s": wall, "paper_mre": 0.2}, "failed": 0,
             "attempted": 10}
        ]
        traced = [{"metrics": {"sim.events": count}}]
        return {"workloads": {"rx_flows": {"runs": runs, "traced": traced}}}

    paths = []
    for index, (wall, count) in enumerate([(10.0, 7), (10.5, 7), (20.0, 7), (10.0, 8)]):
        path = tmp_path / f"set{index}.json"
        path.write_text(json.dumps(result_set(wall, count)))
        paths.append(path)
    assert run.compare(paths[0], paths[1], SPEC) == 0
    assert run.compare(paths[0], paths[2], SPEC) == 1
    assert run.compare(paths[0], paths[3], SPEC) == 1
