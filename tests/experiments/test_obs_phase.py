"""Every figure runner labels one metrics phase per sweep point.

The metric-based expectations (and the truncation warnings in
REPORT.md) select registry phases by label substring, so each runner
must give every sweep point a distinct ``"<figure> <mode> <x>=..."``
label, which ``run_points`` opens the point's phase with whenever a
registry is installed — and must stay registry-free (no phases beyond
the initial one) otherwise.
"""

import pytest

from repro.context import using
from repro.experiments import (
    RunScale,
    fig2_flows,
    fig3_ring,
    fig7_fns_flows,
    fig8_fns_ring,
    fig9_rpc_latency,
    fig10_rxtx,
    fig11_nginx,
    fig11_redis,
    fig11_spdk,
    fig12_ablation,
    model_fit,
)
from repro.obs import MetricsRegistry

MICRO = RunScale(
    name="micro",
    warmup_ns=1_000_000.0,
    measure_ns=2_000_000.0,
    latency_measure_ns=4_000_000.0,
)

# (runner, minimal sweep kwargs, expected phase labels in order)
CASES = [
    (
        fig2_flows,
        {"modes": ("off", "strict"), "flows": (5,)},
        ["Fig 2 off flows=5", "Fig 2 strict flows=5"],
    ),
    (
        fig3_ring,
        {"modes": ("off",), "ring_sizes": (256, 512)},
        ["Fig 3 off ring=256", "Fig 3 off ring=512"],
    ),
    (
        model_fit,
        {"flows": (5, 10)},
        ["Model strict flows=5", "Model strict flows=10"],
    ),
    (
        fig7_fns_flows,
        {"modes": ("fns",), "flows": (5, 10)},
        ["Fig 7 fns flows=5", "Fig 7 fns flows=10"],
    ),
    (
        fig8_fns_ring,
        {"modes": ("fns",), "ring_sizes": (256,)},
        ["Fig 8 fns ring=256"],
    ),
    (
        fig9_rpc_latency,
        {"modes": ("off",), "rpc_sizes": (128,)},
        ["Fig 9 off rpc=128"],
    ),
    (
        fig10_rxtx,
        {"modes": ("off",), "core_counts": (1,)},
        ["Fig 10 off cores=1"],
    ),
    (
        fig11_redis,
        {"modes": ("off",), "value_sizes": (8192,)},
        ["Fig 11a off value=8192"],
    ),
    (
        fig11_nginx,
        {"modes": ("off",), "page_sizes": (131072,)},
        ["Fig 11b off page=131072"],
    ),
    (
        fig11_spdk,
        {"modes": ("off",), "block_sizes": (32768,)},
        ["Fig 11c off block=32768"],
    ),
    (
        fig12_ablation,
        {"modes": ("strict", "fns")},
        ["Fig 12 strict", "Fig 12 fns"],
    ),
]


@pytest.mark.parametrize(
    "runner,kwargs,labels", CASES, ids=[c[0].__name__ for c in CASES]
)
def test_runner_labels_one_phase_per_sweep_point(runner, kwargs, labels):
    registry = MetricsRegistry()
    with using(registry=registry):
        runner(scale=MICRO, **kwargs)
    observed_labels = [p["label"] for p in registry.report()["phases"]]
    assert observed_labels == labels
    assert len(set(observed_labels)) == len(observed_labels)
    # Each labeled phase actually collected that point's metrics.
    for phase in registry.report()["phases"]:
        assert phase["final"], phase["label"]


def test_runner_without_registry_opens_no_phases():
    registry = MetricsRegistry()
    fig12_ablation(modes=("strict",), scale=MICRO)  # registry NOT installed
    assert registry.report()["phases"] == []
