"""Every figure and study labels one metrics phase per sweep point.

The metric-based expectations (and the truncation warnings in
REPORT.md) select registry phases by label substring, so the sweep
must give every point of every table entry a distinct
``"<figure> <mode> <x>=..."`` label (fig12's omit x), which
``run_points`` opens the point's phase with whenever a registry is
installed — and must stay registry-free (no phases beyond the initial
one) otherwise.
"""

import pytest

from repro.context import using
from repro.experiments import FIGURE_TABLE, RunScale, sweep
from repro.obs import MetricsRegistry

MICRO = RunScale(
    name="micro",
    warmup_ns=1_000_000.0,
    measure_ns=2_000_000.0,
    latency_measure_ns=4_000_000.0,
)

# (test id, table key, minimal sweep grid, expected phase labels in order)
CASES = [
    ("fig2_flows", "fig2", {"modes": ("off", "strict"), "xs": (5,)},
     ["Fig 2 off flows=5", "Fig 2 strict flows=5"]),
    ("fig3_ring", "fig3", {"modes": ("off",), "xs": (256, 512)},
     ["Fig 3 off ring=256", "Fig 3 off ring=512"]),
    ("model_fit", "model", {"xs": (5, 10)},
     ["Model strict flows=5", "Model strict flows=10"]),
    ("fig7_fns_flows", "fig7", {"modes": ("fns",), "xs": (5, 10)},
     ["Fig 7 fns flows=5", "Fig 7 fns flows=10"]),
    ("fig8_fns_ring", "fig8", {"modes": ("fns",), "xs": (256,)},
     ["Fig 8 fns ring=256"]),
    ("fig9_rpc_latency", "fig9", {"modes": ("off",), "xs": (128,)},
     ["Fig 9 off rpc=128"]),
    ("fig10_rxtx", "fig10", {"modes": ("off",), "xs": (1,)},
     ["Fig 10 off cores=1"]),
    ("fig11_redis", "fig11a", {"modes": ("off",), "xs": (8192,)},
     ["Fig 11a off value=8192"]),
    ("fig11_nginx", "fig11b", {"modes": ("off",), "xs": (131072,)},
     ["Fig 11b off page=131072"]),
    ("fig11_spdk", "fig11c", {"modes": ("off",), "xs": (32768,)},
     ["Fig 11c off block=32768"]),
    ("fig12_ablation", "fig12", {"modes": ("strict", "fns")},
     ["Fig 12 strict", "Fig 12 fns"]),
    ("ablation_l3", "ablation-l3", {"modes": ("strict", "fns"), "xs": (32,)},
     ["Ablation-L3 strict l3=32", "Ablation-L3 fns l3=32"]),
    ("ablation_aging", "ablation-aging", {"xs": (0,)},
     ["Ablation-aging strict aging=0"]),
    ("ablation_walkers", "ablation-walkers", {"xs": (2,)},
     ["Ablation-walkers strict walkers=2"]),
    ("ablation_ddio", "ablation-ddio", {"xs": ("on",)},
     ["Ablation-DDIO strict ddio=on"]),
    ("generality_single_page", "generality",
     {"modes": ("strict", "fns"), "xs": (1,)},
     ["Generality strict desc_pages=1", "Generality fns desc_pages=1"]),
    ("extension_hugepages", "extension-huge", {"modes": ("fns-huge",)},
     ["Extension-huge fns-huge ring=1024"]),
]


def test_every_table_entry_has_a_case():
    assert [case[1] for case in CASES] == list(FIGURE_TABLE)


@pytest.mark.parametrize(
    "key,grid,labels", [case[1:] for case in CASES], ids=[case[0] for case in CASES]
)
def test_runner_labels_one_phase_per_sweep_point(key, grid, labels):
    registry = MetricsRegistry()
    with using(registry=registry):
        sweep(FIGURE_TABLE[key], scale=MICRO, **grid)
    observed_labels = [p["label"] for p in registry.report()["phases"]]
    assert observed_labels == labels
    assert len(set(observed_labels)) == len(observed_labels)
    # Each labeled phase actually collected that point's metrics.
    for phase in registry.report()["phases"]:
        assert phase["final"], phase["label"]


def test_runner_without_registry_opens_no_phases():
    registry = MetricsRegistry()
    # registry NOT installed
    sweep(FIGURE_TABLE["fig12"], modes=("strict",), scale=MICRO)
    assert registry.report()["phases"] == []
