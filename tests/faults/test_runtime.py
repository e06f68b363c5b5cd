"""Tests for the fault runtime: installation, RNG streams, timeline."""

from repro.context import current_context, using
from repro.faults import FaultPlan, FaultRuntime, FaultSpec
from repro.sim import Simulator


def drop_plan(seed=1):
    return FaultPlan(
        seed=seed,
        specs=(FaultSpec("invalidation", "drop-completion"),),
    )


def test_no_runtime_installed_by_default():
    assert current_context().faults is None
    assert current_context().injector("invalidation") is None


def test_faulted_installs_and_restores():
    runtime = FaultRuntime(drop_plan())
    with using(faults=runtime):
        assert current_context().faults is runtime
        assert current_context().injector("invalidation") is not None
        # No specs for this component: the site pays nothing.
        assert current_context().injector("pcie") is None
    assert current_context().faults is None


def test_faulted_nesting_restores_outer():
    outer = FaultRuntime(drop_plan(seed=1))
    with using(faults=outer):
        inner = FaultRuntime(drop_plan(seed=2))
        with using(faults=inner):
            assert current_context().faults is inner
        assert current_context().faults is outer


def test_faulted_accepts_prepared_runtime():
    runtime = FaultRuntime(drop_plan())
    with using(faults=runtime) as context:
        assert context.faults is runtime


def test_site_ordinals_get_distinct_streams():
    runtime = FaultRuntime(drop_plan())
    first = runtime.injector("invalidation")
    second = runtime.injector("invalidation")
    assert first.site == 0 and second.site == 1
    assert [first.rng.random() for _ in range(4)] != [
        second.rng.random() for _ in range(4)
    ]


def test_streams_stable_across_runtimes():
    draws = []
    for _ in range(2):
        runtime = FaultRuntime(drop_plan(seed=7))
        injector = runtime.injector("invalidation")
        draws.append([injector.rng.random() for _ in range(5)])
    assert draws[0] == draws[1]


def test_clock_binding_stamps_records():
    runtime = FaultRuntime(drop_plan())
    assert runtime.now() == 0.0  # unbound: windows at 0 are active
    sim = Simulator()
    runtime.bind_clock(sim)
    sim.call_after(125.0, lambda: runtime.record("net", "loss", "pkt=1"))
    sim.run()
    assert runtime.injected_faults == 1
    record = runtime.records[0]
    assert record.time_ns == 125.0
    assert record.format() == "125.000 net loss pkt=1"
    assert runtime.timeline_text() == record.format()
