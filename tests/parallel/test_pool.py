"""``run_points``: ordering, serial fallbacks, error transport, adoption.

These tests register throwaway point runners directly in
``POINT_RUNNERS``; workers inherit the registration because Linux
multiprocessing forks (the real runners are importable either way).
"""

import contextlib
import gc
import os
import weakref

import pytest

from repro.cache.store import ResultCache
from repro.context import current_context, using
from repro.experiments.points import POINT_RUNNERS
from repro.experiments.settings import QUICK
from repro.faults import FaultPlan, FaultRuntime
from repro.obs import MetricsRegistry, SpanTracer
from repro.parallel import PointSpec, RemotePointError, run_points
from repro.verify import InvariantMonitor
from repro.verify.events import Event
from repro.verify.violation import InvariantViolation


def _pid_point(spec, scale):
    return {"label": spec.label, "x": spec.x, "pid": os.getpid()}


def _violating_point(spec, scale):
    event = Event()
    raise InvariantViolation(
        "use-after-unmap", f"boom in {spec.label}", event, [event]
    )


def _crashing_point(spec, scale):
    raise RuntimeError("worker infrastructure failure")


@pytest.fixture()
def scratch_runners():
    names = []

    def register(name, fn):
        POINT_RUNNERS[name] = fn
        names.append(name)
        return name

    yield register
    for name in names:
        POINT_RUNNERS.pop(name, None)


def specs_for(runner, count=4):
    return [
        PointSpec(
            figure="T",
            runner=runner,
            mode="off",
            x=x,
            label=f"T off x={x}",
            seed=x,
        )
        for x in range(count)
    ]


class TestRunPoints:
    def test_unknown_runner_is_a_clear_error(self):
        with pytest.raises(KeyError, match="unknown point runner"):
            run_points(specs_for("no-such-runner", 1), QUICK)

    def test_negative_jobs_rejected(self, scratch_runners):
        runner = scratch_runners("t-pid", _pid_point)
        with pytest.raises(ValueError):
            run_points(specs_for(runner), QUICK, jobs=-1)

    def test_serial_results_in_spec_order(self, scratch_runners):
        runner = scratch_runners("t-pid", _pid_point)
        values = run_points(specs_for(runner), QUICK)
        assert [v["x"] for v in values] == [0, 1, 2, 3]
        assert all(v["pid"] == os.getpid() for v in values)

    def test_parallel_runs_in_workers_and_keeps_order(
        self, scratch_runners
    ):
        runner = scratch_runners("t-pid", _pid_point)
        values = run_points(specs_for(runner), QUICK, jobs=2)
        assert [v["x"] for v in values] == [0, 1, 2, 3]
        # Work actually moved out of this process.
        assert all(v["pid"] != os.getpid() for v in values)

    def test_single_point_stays_serial(self, scratch_runners):
        runner = scratch_runners("t-pid", _pid_point)
        values = run_points(specs_for(runner, count=1), QUICK, jobs=8)
        assert values[0]["pid"] == os.getpid()

    def test_monitor_forces_serial(self, scratch_runners):
        runner = scratch_runners("t-pid", _pid_point)
        with using(monitor=InvariantMonitor()):
            values = run_points(specs_for(runner), QUICK, jobs=2)
        assert all(v["pid"] == os.getpid() for v in values)

    def test_fault_runtime_forces_serial(self, scratch_runners):
        runner = scratch_runners("t-pid", _pid_point)
        plan = FaultPlan(seed=1, name="empty", specs=())
        with using(faults=FaultRuntime(plan)):
            values = run_points(specs_for(runner), QUICK, jobs=2)
        assert all(v["pid"] == os.getpid() for v in values)

    def test_tracer_forces_serial(self, scratch_runners):
        runner = scratch_runners("t-pid", _pid_point)
        registry = MetricsRegistry(tracer=SpanTracer())
        with using(registry=registry):
            values = run_points(specs_for(runner), QUICK, jobs=2)
        assert all(v["pid"] == os.getpid() for v in values)
        # The serial path still labels one phase per point.
        assert [p.label for p in registry.phases] == [
            s.label for s in specs_for(runner)
        ]

    def test_violation_in_worker_raises_remote_point_error(
        self, scratch_runners
    ):
        runner = scratch_runners("t-boom", _violating_point)
        with pytest.raises(RemotePointError) as info:
            run_points(specs_for(runner), QUICK, jobs=2)
        error = info.value
        assert error.label.startswith("T off x=")
        assert error.kind == "use-after-unmap"
        assert "boom in" in error.format_trace()

    def test_other_worker_exceptions_propagate_as_is(
        self, scratch_runners
    ):
        runner = scratch_runners("t-crash", _crashing_point)
        with pytest.raises(RuntimeError, match="infrastructure"):
            run_points(specs_for(runner), QUICK, jobs=2)

    def test_parallel_phases_match_serial_phases(self, scratch_runners):
        runner = scratch_runners("t-pid", _pid_point)
        serial = MetricsRegistry()
        with using(registry=serial):
            run_points(specs_for(runner), QUICK)
        parallel = MetricsRegistry()
        with using(registry=parallel):
            run_points(specs_for(runner), QUICK, jobs=2)
        assert parallel.report() == serial.report()


class _Cycle:
    """Garbage only the cycle collector can free, like a dead testbed."""

    def __init__(self):
        self.me = self


@pytest.mark.parametrize("cached", [False, True])
def test_each_point_frees_its_cyclic_garbage(
    scratch_runners, tmp_path, monkeypatch, cached
):
    # Peak memory is bounded by one cell, not by how many dead cells
    # pile up before the collector's own schedule runs a full pass.
    refs = []
    alive_at_start = []

    def point(spec, scale):
        alive_at_start.append(sum(ref() is not None for ref in refs))
        refs.append(weakref.ref(_Cycle()))
        return spec.x

    runner = scratch_runners("t-cycle", point)
    monkeypatch.setattr(
        ResultCache, "fingerprint_for", lambda self: "pinned"
    )
    store = ResultCache(str(tmp_path / "store"))
    gc.disable()
    try:
        with using(cache=store) if cached else contextlib.nullcontext():
            run_points(specs_for(runner), QUICK)
    finally:
        gc.enable()
    assert alive_at_start == [0, 0, 0, 0]
    assert all(ref() is None for ref in refs)


@pytest.mark.parametrize("cached", [False, True])
def test_each_point_frees_its_cyclic_garbage_under_a_registry(
    scratch_runners, tmp_path, monkeypatch, cached
):
    # A metric's read callable closes over the cell's objects; once the
    # cell's finals are captured it must not keep them alive.
    refs = []
    alive_at_start = []

    def point(spec, scale):
        alive_at_start.append(sum(ref() is not None for ref in refs))
        cycle = _Cycle()
        refs.append(weakref.ref(cycle))
        registry = current_context().registry
        registry.scope("cell").counter("me", lambda: id(cycle.me))
        return spec.x

    runner = scratch_runners("t-cycle-obs", point)
    monkeypatch.setattr(
        ResultCache, "fingerprint_for", lambda self: "pinned"
    )
    store = ResultCache(str(tmp_path / "store"))
    registry = MetricsRegistry()
    gc.disable()
    try:
        with using(registry=registry):
            with using(cache=store) if cached else contextlib.nullcontext():
                run_points(specs_for(runner), QUICK)
    finally:
        gc.enable()
    assert alive_at_start == [0, 0, 0, 0]
    assert all(ref() is None for ref in refs)
    assert [set(phase.final) for phase in registry.phases] == [{"cell.me"}] * 4


class TestChunking:
    def test_invalid_chunk_rejected(self, scratch_runners):
        runner = scratch_runners("t-pid", _pid_point)
        with pytest.raises(ValueError, match="chunk"):
            run_points(specs_for(runner), QUICK, jobs=2, chunk=0)

    @pytest.mark.parametrize("chunk", [1, 3, 99])
    def test_results_identical_for_every_chunk_size(
        self, scratch_runners, chunk
    ):
        runner = scratch_runners("t-pid", _pid_point)
        serial = run_points(specs_for(runner, count=5), QUICK)
        pooled = run_points(
            specs_for(runner, count=5), QUICK, jobs=2, chunk=chunk
        )
        strip = lambda vs: [  # noqa: E731 - pids intentionally differ
            {k: v for k, v in value.items() if k != "pid"} for value in vs
        ]
        assert strip(pooled) == strip(serial)

    def test_violation_transported_from_chunk(self, scratch_runners):
        boom = scratch_runners("t-boom", _violating_point)
        with pytest.raises(RemotePointError) as info:
            run_points(specs_for(boom), QUICK, jobs=2, chunk=3)
        assert info.value.kind == "use-after-unmap"

    def test_chunk_stops_at_failing_point_but_keeps_earlier_phases(
        self, scratch_runners
    ):
        pid = scratch_runners("t-pid", _pid_point)
        boom = scratch_runners("t-boom", _violating_point)
        specs = specs_for(pid, count=2) + specs_for(boom, count=1)
        registry = MetricsRegistry()
        with using(registry=registry):
            with pytest.raises(RemotePointError):
                run_points(specs, QUICK, jobs=2, chunk=3)
        # The two completed points' phases were adopted before the
        # error re-raised; the failing point's phase is not.
        assert [p.label for p in registry.phases] == [
            s.label for s in specs[:2]
        ]


class TestWarmPool:
    def test_pool_persists_across_sweeps(self, scratch_runners):
        from repro.parallel import pool_forks, shutdown_pool

        shutdown_pool()
        runner = scratch_runners("t-pid", _pid_point)
        forks_before = pool_forks()
        run_points(specs_for(runner), QUICK, jobs=2)
        after_first = pool_forks()
        # The regression this guards: each sweep used to build (and
        # tear down) its own executor.  A second sweep through the same
        # pool must not fork again.
        run_points(specs_for(runner), QUICK, jobs=2)
        run_points(specs_for(runner), QUICK, jobs=2, chunk=2)
        assert after_first == forks_before + 1
        assert pool_forks() == after_first

    def test_new_runner_registration_reforks(self, scratch_runners):
        from repro.parallel import pool_forks, shutdown_pool

        shutdown_pool()
        runner = scratch_runners("t-pid", _pid_point)
        run_points(specs_for(runner), QUICK, jobs=2)
        baseline = pool_forks()
        # Registering another runner changes the registry token; the
        # next sweep must re-fork so workers see the registration.
        other = scratch_runners("t-pid-2", _pid_point)
        values = run_points(specs_for(other), QUICK, jobs=2)
        assert pool_forks() == baseline + 1
        assert [v["x"] for v in values] == [0, 1, 2, 3]


class TestAdoptPhase:
    def payload(self):
        source = MetricsRegistry()
        source.begin_phase("cell")
        count = {"n": 0.0}
        scope = source.scope("nic")
        scope.counter("arrived", lambda: count["n"])
        count["n"] = 7.0
        return source.report()["phases"][0]

    def test_round_trips_to_identical_report_entry(self):
        payload = self.payload()
        parent = MetricsRegistry()
        parent.begin_phase("before")
        adopted = parent.adopt_phase(payload)
        entry = parent.report()["phases"][1]
        assert adopted.index == 1
        assert entry["label"] == "cell"
        assert entry["final"] == {"nic.arrived": 7.0}
        assert adopted.final == payload["final"]
        assert set(entry) == {
            "index", "label", "final", "truncated", "samples",
        }
        index_free = {k: v for k, v in entry.items() if k != "index"}
        payload_free = {k: v for k, v in payload.items() if k != "index"}
        assert index_free == payload_free

    def test_adopted_phase_is_frozen(self):
        parent = MetricsRegistry()
        adopted = parent.adopt_phase(self.payload())
        assert adopted.sim_attached  # attach_simulator must not reuse it
        assert adopted.read_all() == {"nic.arrived": 7.0}

    def test_adoption_finalizes_previous_phase(self):
        parent = MetricsRegistry()
        parent.begin_phase("before")
        parent.adopt_phase(self.payload())
        assert parent.phases[0].final is not None

    def test_summary_rows_cover_adopted_phases(self):
        parent = MetricsRegistry()
        parent.adopt_phase(self.payload())
        _headers, rows = parent.summary_rows()
        assert rows[0][0] == "cell"
