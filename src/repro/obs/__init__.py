"""repro.obs: unified observability — metrics registry, sampler, tracer.

The layer is opt-in and zero-cost when uninstalled: instrumented
subsystems read the run context (:mod:`repro.context`) once at
construction and skip all per-event work when its ``registry`` is
``None`` (the default).  Install a registry around an experiment with::

    from repro.context import using
    from repro.obs import MetricsRegistry, SpanTracer

    registry = MetricsRegistry(
        tracer=SpanTracer(), sample_interval_ns=100_000.0
    )
    with using(registry=registry):
        result = run_iperf("strict", flows=2)
    registry.report()          # metrics JSON document
    registry.tracer.write("trace.json")   # Perfetto-loadable

The CLI surfaces the same machinery as ``repro run <figure> --metrics
PATH --trace PATH``.  Wall-clock speed is measured outside the package,
by the benchmark of ``repro reproduce`` in ``bench/run.py``.
"""

from .registry import MetricsRegistry, MetricsScope, Phase
from .sampler import MetricsSampler
from .tracer import SpanTracer

__all__ = [
    "MetricsScope",
    "Phase",
    "MetricsRegistry",
    "MetricsSampler",
    "SpanTracer",
]
