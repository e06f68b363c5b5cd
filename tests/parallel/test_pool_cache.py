"""``run_points`` + result cache: warm cells skip execution entirely.

Uses pid-stamping and counting scratch runners: a warm cell returns
the *stored* value (including the pid that computed it), so equality
across runs proves no re-execution, on the serial and pooled paths
alike.
"""

import os

import pytest

from repro.cache.store import ResultCache
from repro.context import current_context, using
from repro.experiments.points import POINT_RUNNERS
from repro.experiments.settings import QUICK
from repro.faults import FaultPlan, FaultRuntime
from repro.obs import MetricsRegistry, SpanTracer
from repro.parallel import PointSpec, RemotePointError, pool, run_points
from repro.verify import InvariantMonitor
from repro.verify.events import Event
from repro.verify.violation import InvariantViolation

COUNTED: list[str] = []


def _counting_point(spec, scale):
    COUNTED.append(spec.label)
    return {"label": spec.label, "x": spec.x, "pid": os.getpid()}


def _metered_point(spec, scale):
    registry = current_context().registry
    if registry is not None:
        registry.scope("cell").counter("x", lambda: spec.x)
    return {"label": spec.label, "x": spec.x, "pid": os.getpid()}


def _violating_point(spec, scale):
    event = Event()
    raise InvariantViolation(
        "use-after-unmap", f"boom in {spec.label}", event, [event]
    )


@pytest.fixture(autouse=True)
def scratch_runners():
    COUNTED.clear()
    POINT_RUNNERS["t-count"] = _counting_point
    POINT_RUNNERS["t-metered"] = _metered_point
    POINT_RUNNERS["t-violate"] = _violating_point
    yield
    POINT_RUNNERS.pop("t-count", None)
    POINT_RUNNERS.pop("t-metered", None)
    POINT_RUNNERS.pop("t-violate", None)


def specs_for(runner, count=4, payload=None):
    return [
        PointSpec(
            figure="T",
            runner=runner,
            mode="off",
            x=x,
            label=f"T off x={x}",
            seed=x,
            payload=payload,
        )
        for x in range(count)
    ]


@pytest.fixture()
def cache(tmp_path, monkeypatch):
    store = ResultCache(str(tmp_path / "store"))
    monkeypatch.setattr(
        type(store), "fingerprint_for", lambda self: "pinned"
    )
    return store


class TestWarmPath:
    def test_serial_warm_run_executes_nothing(self, cache):
        specs = specs_for("t-count")
        with using(cache=cache):
            cold = run_points(specs, QUICK)
            assert len(COUNTED) == 4
            warm = run_points(specs, QUICK)
        assert len(COUNTED) == 4
        assert warm == cold  # stored values, stored pids

    def test_pooled_cold_then_serial_warm(self, cache):
        specs = specs_for("t-count")
        with using(cache=cache):
            cold = run_points(specs, QUICK, jobs=2)
            warm = run_points(specs, QUICK)  # jobs=None: same store
        assert warm == cold
        # The parent never executed a cell: cold values carry worker
        # pids, and the warm run returned exactly those.
        assert all(v["pid"] != os.getpid() for v in warm)
        assert COUNTED == []  # counting happened in the workers

    def test_mixed_sweep_executes_only_cold_cells(self, cache):
        with using(cache=cache):
            run_points(specs_for("t-count", count=2), QUICK)
            assert len(COUNTED) == 2
            values = run_points(specs_for("t-count", count=4), QUICK)
        assert len(COUNTED) == 4  # only x=2,3 were cold
        assert [v["x"] for v in values] == [0, 1, 2, 3]
        assert COUNTED[2:] == ["T off x=2", "T off x=3"]

    def test_phases_identical_cold_and_warm(self, cache):
        specs = specs_for("t-count")
        with using(cache=cache):
            cold_registry = MetricsRegistry()
            with using(registry=cold_registry):
                run_points(specs, QUICK)
            warm_registry = MetricsRegistry()
            with using(registry=warm_registry):
                run_points(specs, QUICK)
        assert cold_registry.report() == warm_registry.report()

    def test_phase_labels_match_serial_run(self, cache):
        specs = specs_for("t-count")
        with using(cache=cache):
            registry = MetricsRegistry()
            with using(registry=registry):
                run_points(specs, QUICK)
        assert [p.label for p in registry.phases] == [
            s.label for s in specs
        ]


class TestBypass:
    def run_twice(self, specs, ctx, cache):
        with using(cache=cache), ctx:
            run_points(specs, QUICK)
            run_points(specs, QUICK)

    def test_payload_specs_bypass(self, cache):
        specs = specs_for("t-count", payload={"plan": "x"})
        import contextlib

        self.run_twice(specs, contextlib.nullcontext(), cache)
        assert len(COUNTED) == 8  # executed both times, no caching
        assert cache.stats.hits == 0 and cache.stats.misses == 0

    def test_monitor_bypasses(self, cache):
        self.run_twice(
            specs_for("t-count"), using(monitor=InvariantMonitor()), cache
        )
        assert len(COUNTED) == 8
        assert cache.stats.hits == 0

    def test_fault_runtime_bypasses(self, cache):
        plan = FaultPlan(seed=1, name="empty", specs=())
        self.run_twice(
            specs_for("t-count"), using(faults=FaultRuntime(plan)), cache
        )
        assert len(COUNTED) == 8
        assert cache.stats.hits == 0

    def test_tracer_bypasses(self, cache):
        registry = MetricsRegistry(tracer=SpanTracer())
        self.run_twice(specs_for("t-count"), using(registry=registry), cache)
        assert len(COUNTED) == 8
        assert cache.stats.hits == 0


class TestErrors:
    def test_cold_in_process_violation_raises_invariant_violation(
        self, cache
    ):
        with using(cache=cache):
            with pytest.raises(InvariantViolation, match="boom"):
                run_points(specs_for("t-violate", count=2), QUICK)

    def test_violation_after_warm_cells_adopts_their_phases(self, cache):
        good = specs_for("t-count", count=2)
        with using(cache=cache):
            # Warm the good cells under the same observation shape the
            # mixed run will use (collect=True is part of the key).
            with using(registry=MetricsRegistry()):
                run_points(good, QUICK)
            mixed = good + [
                PointSpec(
                    figure="T",
                    runner="t-violate",
                    mode="off",
                    x=9,
                    label="T off x=9",
                    seed=9,
                )
            ]
            registry = MetricsRegistry()
            with using(registry=registry), pytest.raises(InvariantViolation):
                run_points(mixed, QUICK)
        # The two warm cells' phases landed before the violating cell
        # opened its own, exactly like an uncached sweep that died on
        # its third point.
        assert [p.label for p in registry.phases] == [
            "T off x=0", "T off x=1", "T off x=9"
        ]
        assert len(COUNTED) == 2  # the violating cell never re-ran them

    def test_pooled_violation_after_warm_cells_adopts_earlier_phases(
        self, cache
    ):
        good = specs_for("t-metered", count=2)
        with using(cache=cache):
            with using(registry=MetricsRegistry()):
                run_points(good, QUICK)
            mixed = good + [
                PointSpec(
                    figure="T", runner="t-metered", mode="off", x=2,
                    label="T off x=2", seed=2,
                ),
                PointSpec(
                    figure="T", runner="t-violate", mode="off", x=9,
                    label="T off x=9", seed=9,
                ),
            ]
            registry = MetricsRegistry()
            with using(registry=registry):
                with pytest.raises(RemotePointError) as info:
                    run_points(mixed, QUICK, jobs=2, chunk=1)
        assert info.value.label == "T off x=9"
        # Warm, warm, then the pooled cell that completed before the
        # violation; the violating cell's phase never comes back.
        assert [p.label for p in registry.phases] == [
            "T off x=0", "T off x=1", "T off x=2"
        ]
        assert [p.final for p in registry.phases] == [
            {"cell.x": 0}, {"cell.x": 1}, {"cell.x": 2}
        ]


class _CountingPool:
    """The shared pool, with every ``submit`` recorded."""

    def __init__(self, inner):
        self.inner = inner
        self.tasks = []

    def submit(self, fn, specs, *args):
        self.tasks.append([spec.x for spec in specs])
        return self.inner.submit(fn, specs, *args)


class TestOneLoop:
    @pytest.mark.parametrize("chunk, tasks", [
        # Default: two tasks per worker, ceil(5 / (2 * 2)) = 2 cells each.
        pytest.param(None, [[0, 1], [2, 3], [4]], id="default"),
        pytest.param(1, [[0], [1], [2], [3], [4]], id="chunk1"),
    ])
    def test_pooled_sweep_dispatches_chunks(self, monkeypatch, chunk, tasks):
        # Per-cell dispatch pays pickling and future bookkeeping per
        # cell, which once made --jobs 2 slower than a serial sweep.
        ensure = pool._ensure_pool
        counting = []

        def counted(workers):
            counting.append(_CountingPool(ensure(workers)))
            return counting[-1]

        monkeypatch.setattr(pool, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(pool, "_ensure_pool", counted)
        values = run_points(specs_for("t-count", 5), QUICK, jobs=2,
                            chunk=chunk)
        assert [v["x"] for v in values] == [0, 1, 2, 3, 4]
        [pooled] = counting
        assert pooled.tasks == tasks

    def test_half_warm_pooled_sweep_runs_only_cold_cells(self, cache):
        specs = specs_for("t-metered")
        warm_specs = [specs[1], specs[3]]
        with using(cache=cache):
            with using(registry=MetricsRegistry()):
                run_points(warm_specs, QUICK)
            hits, misses = cache.stats.hits, cache.stats.misses
            registry = MetricsRegistry()
            with using(registry=registry):
                values = run_points(specs, QUICK, jobs=2, chunk=1)
        assert cache.stats.hits - hits == 2
        assert cache.stats.misses - misses == 2
        assert [v["x"] for v in values] == [0, 1, 2, 3]
        # Warm cells return their stored (parent) pids; the cold ones
        # ran in workers.
        parent = os.getpid()
        assert [v["pid"] == parent for v in values] == [
            False, True, False, True
        ]
        serial = MetricsRegistry()
        with using(registry=serial):
            run_points(specs, QUICK)
        assert registry.report() == serial.report()
