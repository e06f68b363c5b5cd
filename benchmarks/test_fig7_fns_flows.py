"""Fig 7: F&S near-completely eliminates memory-protection overheads.

Paper's findings reproduced here, per flow count:
(a) F&S throughput matches IOMMU-off;
(b) F&S eliminates the protection-induced packet drops;
(d) F&S brings PTcache-L1/L2 misses to zero and reduces PTcache-L3
    misses by more than an order of magnitude;
(e) F&S allocation locality is near-perfect (contiguous chunks).

Claims live in ``repro.obs.expectations.fig7``; the run also collects
registry metrics so the metric-based claims (steady-state zero PTcache
misses) evaluate here exactly as they do under ``repro reproduce``.
"""

from conftest import assert_expectations, run_once

from repro.context import using
from repro.experiments import QUICK, fig7_fns_flows
from repro.obs import MetricsRegistry


def test_fig7(benchmark, record_figure):
    registry = MetricsRegistry()

    def run(scale):
        with using(registry=registry):
            return fig7_fns_flows(scale=scale)

    result = run_once(benchmark, run, scale=QUICK)
    record_figure(result)
    assert_expectations("fig7", result, metrics=registry.report())
