"""End-to-end: an observed run produces metrics, samples and spans."""

from repro.apps.iperf import run_iperf
from repro.context import using
from repro.obs import MetricsRegistry, SpanTracer


def _observed_run(mode="strict", **registry_kwargs):
    registry = MetricsRegistry(**registry_kwargs)
    with using(registry=registry):
        run_iperf(
            mode, flows=2, warmup_ns=200_000.0, measure_ns=500_000.0
        )
    return registry


def test_subsystems_register_and_count():
    registry = _observed_run()
    final = registry.report()["phases"][0]["final"]
    assert final["iommu.translations"] > 0
    assert final["iotlb.hits"] + final["iotlb.misses"] > 0
    assert final["pcie.rx.bytes"] > 0
    assert final["nic.arrived_packets"] > 0
    assert final["host.rx_data_segments"] > 0
    assert final["switch.to_host.delivered_bytes"] > 0
    assert final["switch.to_peer.delivered_bytes"] > 0
    assert any(name.startswith("dctcp.flow") for name in final)
    assert any(name.startswith("ptcache.l3") for name in final)
    assert "driver.degraded_flushes" in final
    assert "invq.cpu_ns" in final
    assert "iova.rcache.allocs" in final


def test_sampler_records_time_series():
    registry = _observed_run(sample_interval_ns=100_000.0)
    phase = registry.report()["phases"][0]
    times = phase["samples"]["t_ns"]
    assert len(times) >= 3
    assert times == sorted(times)
    series = phase["samples"]["series"]["iommu.translations"]
    assert len(series) == len(times)
    # Counters sampled over time are monotonic.
    values = [v for v in series if v is not None]
    assert values == sorted(values)


def test_tracer_collects_dma_walk_and_invalidation_spans():
    registry = _observed_run(tracer=SpanTracer())
    spans = [e for e in registry.tracer.events if e["ph"] == "X"]
    names = {e["name"] for e in spans}
    assert "dma" in names
    assert "walk" in names
    assert "invalidation" in names
    for span in spans:
        assert span["ts"] >= 0.0
        assert span["dur"] >= 0.0


def test_off_mode_registers_without_iommu_metrics():
    registry = _observed_run(mode="off")
    final = registry.report()["phases"][0]["final"]
    assert "iommu.translations" not in final
    assert final["pcie.rx.bytes"] > 0
