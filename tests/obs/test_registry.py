"""Unit tests for the metrics registry, phases, scopes and sampler."""

from repro.context import current_context, reset_context, using
from repro.obs import MetricsRegistry, MetricsSampler
from repro.sim import Simulator


def test_no_registry_by_default():
    assert current_context().registry is None


def test_observed_installs_and_restores():
    registry = MetricsRegistry()
    with using(registry=registry):
        assert current_context().registry is registry
        inner = MetricsRegistry()
        with using(registry=inner):
            assert current_context().registry is inner
        assert current_context().registry is registry
    assert current_context().registry is None


def test_observed_restores_on_exception():
    registry = MetricsRegistry()
    try:
        with using(registry=registry):
            raise RuntimeError("boom")
    except RuntimeError:
        pass
    assert current_context().registry is None


def test_set_registry_explicit():
    # reset_context() is the one install without a block: a forked
    # pool worker empties what it inherited, registry included.
    with using(registry=MetricsRegistry()):
        reset_context()
        assert current_context().registry is None
    assert current_context().registry is None


def test_scope_registers_counters_and_gauges():
    registry = MetricsRegistry()
    state = {"count": 0, "level": 3}
    scope = registry.scope("thing")
    scope.counter("count", lambda: state["count"])
    scope.gauge("level", lambda: state["level"])
    state["count"] = 7
    phase = registry.current_phase()
    assert phase.read_all() == {"thing.count": 7, "thing.level": 3}
    phase_doc = registry.report()["phases"][0]
    assert phase_doc["final"] == {"thing.count": 7, "thing.level": 3}
    # Reading a frozen phase returns its finals, not the live values.
    state["count"] = 9
    assert phase.read_all() == {"thing.count": 7, "thing.level": 3}


def test_scope_dedup_suffixes():
    registry = MetricsRegistry()
    first = registry.scope("pcie.rx")
    second = registry.scope("pcie.rx")
    assert first.prefix == "pcie.rx"
    assert second.prefix == "pcie.rx#2"


def test_phase_separates_namespaces():
    registry = MetricsRegistry()
    registry.begin_phase("a")
    registry.scope("x").counter("n", lambda: 1)
    registry.begin_phase("b")
    registry.scope("x").counter("n", lambda: 2)
    doc = registry.report()
    assert [p["label"] for p in doc["phases"]] == ["a", "b"]
    assert doc["phases"][0]["final"] == {"x.n": 1}
    assert doc["phases"][1]["final"] == {"x.n": 2}


def test_begin_phase_freezes_previous_finals():
    registry = MetricsRegistry()
    state = {"n": 5}
    registry.scope("x").counter("n", lambda: state["n"])
    registry.begin_phase("next")
    state["n"] = 99  # mutation after the phase closed must not leak in
    assert registry.report()["phases"][0]["final"] == {"x.n": 5}


def test_attach_simulator_starts_sampler_and_auto_phases():
    registry = MetricsRegistry(sample_interval_ns=100.0)
    state = {"n": 0}

    sim1 = Simulator()
    registry.scope("x").counter("n", lambda: state["n"])
    registry.attach_simulator(sim1)
    sim1.call_after(50.0, lambda: state.update(n=1))
    sim1.call_after(450.0, lambda: state.update(n=2))
    sim1.run()
    phase1 = registry.current_phase()
    assert phase1.sim_attached
    assert len(phase1.sample_times) >= 2
    assert phase1.series["x.n"][0] == 1

    # A second simulator on the same registry must open a new phase.
    sim2 = Simulator()
    registry.attach_simulator(sim2)
    assert len(registry.phases) == 2


def test_sampler_stops_when_workload_drains():
    registry = MetricsRegistry(sample_interval_ns=100.0)
    sim = Simulator()
    registry.scope("x").counter("n", lambda: 0)
    registry.attach_simulator(sim)
    sim.call_after(250.0, lambda: None)
    sim.run(until=1_000_000.0)
    # The sampler must not have kept itself alive to the horizon.
    samples = len(registry.current_phase().sample_times)
    assert 1 <= samples <= 4


def test_sampler_respects_max_samples():
    sim = Simulator()
    registry = MetricsRegistry()
    phase = registry.current_phase()

    def keep_alive():
        sim.call_after(10.0, keep_alive)

    keep_alive()
    sampler = MetricsSampler(sim, phase, 100.0, max_samples=5)
    sampler.start()
    sim.run(until=10_000.0)
    assert len(phase.sample_times) == 5
    assert sampler.stopped


def test_sampler_flags_truncation_when_workload_outlives_series():
    sim = Simulator()
    registry = MetricsRegistry()
    phase = registry.current_phase()

    def keep_alive():
        sim.call_after(10.0, keep_alive)

    keep_alive()
    sampler = MetricsSampler(sim, phase, 100.0, max_samples=5)
    sampler.start()
    sim.run(until=10_000.0)
    assert sampler.stopped
    assert phase.truncated
    assert phase.to_dict()["truncated"] is True
    # The summary table surfaces the flag next to the sample count.
    headers, rows = registry.summary_rows()
    assert rows[0][headers.index("samples")] == "5 (truncated)"


def test_sampler_drained_workload_is_not_truncated():
    sim = Simulator()
    registry = MetricsRegistry()
    phase = registry.current_phase()
    sim.call_after(250.0, lambda: None)
    sampler = MetricsSampler(sim, phase, 100.0, max_samples=5)
    sampler.start()
    sim.run(until=10_000.0)
    assert sampler.stopped
    assert not phase.truncated
    assert phase.to_dict()["truncated"] is False


def test_series_padded_for_late_registration():
    registry = MetricsRegistry()
    phase = registry.current_phase()
    registry.scope("a").counter("n", lambda: 1)
    phase.record_sample(0.0)
    registry.scope("b").counter("n", lambda: 2)
    phase.record_sample(100.0)
    series = phase.to_dict()["samples"]["series"]
    assert series["a.n"] == [1, 1]
    assert series["b.n"] == [None, 2]


def test_summary_rows_aggregate_instances():
    registry = MetricsRegistry()
    registry.begin_phase("p")
    registry.scope("iommu").counter("translations", lambda: 10)
    registry.scope("pcie.rx").counter("bytes", lambda: 100)
    registry.scope("pcie.tx").counter("bytes", lambda: 50)
    # A second host's pipelines land in "#2" scopes and must still sum.
    registry.scope("pcie.rx").counter("bytes", lambda: 7)
    headers, rows = registry.summary_rows()
    row = dict(zip(headers, rows[0]))
    assert row["phase"] == "p"
    assert row["translations"] == 10
    assert row["dma_bytes"] == 157
