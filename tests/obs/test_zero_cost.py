"""The observability layer must be zero-cost when uninstalled.

With no registry installed, instrumented objects keep ``obs is None``
and never touch the registry, sampler or tracer.  The tests poison
every obs entry point so any per-event work — a stray registration, a
sampled tick, a span emission — fails loudly.
"""

import pytest

from repro.apps.iperf import run_iperf
from repro.context import current_context, using
from repro.iommu import Iommu
from repro.iova import CachingIovaAllocator
from repro.obs import MetricsRegistry, MetricsSampler, SpanTracer
from repro.obs.registry import MetricsScope, Phase


def _poison(monkeypatch):
    def bomb(name):
        def _raise(*args, **kwargs):
            raise AssertionError(f"obs work without a registry: {name}")

        return _raise

    monkeypatch.setattr(MetricsRegistry, "scope", bomb("scope"))
    monkeypatch.setattr(
        MetricsRegistry, "attach_simulator", bomb("attach_simulator")
    )
    monkeypatch.setattr(MetricsScope, "_add", bomb("register"))
    monkeypatch.setattr(Phase, "record_sample", bomb("sample"))
    monkeypatch.setattr(MetricsSampler, "start", bomb("sampler.start"))
    monkeypatch.setattr(SpanTracer, "complete", bomb("tracer.complete"))
    monkeypatch.setattr(SpanTracer, "instant", bomb("tracer.instant"))


def test_constructed_objects_have_no_obs_reference():
    assert current_context().registry is None
    iommu = Iommu()
    assert iommu.obs is None
    assert iommu.iotlb.obs is None
    assert iommu.invalidation_queue.obs is None
    alloc = CachingIovaAllocator(num_cpus=1)
    assert alloc.obs is None
    assert alloc.rbtree.obs is None


def test_full_run_does_no_obs_work_when_uninstalled(monkeypatch):
    _poison(monkeypatch)
    result = run_iperf(
        "fns", flows=1, warmup_ns=100_000.0, measure_ns=200_000.0
    )
    assert result.rx_goodput_gbps >= 0.0


def test_poison_actually_fires_when_installed(monkeypatch):
    # Sanity-check the poisoning itself: with a registry installed the
    # first registration must trip it.
    _poison(monkeypatch)
    with using(registry=MetricsRegistry()):
        with pytest.raises(AssertionError, match="obs work"):
            run_iperf(
                "fns", flows=1, warmup_ns=100_000.0, measure_ns=200_000.0
            )
