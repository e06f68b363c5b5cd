"""Experiment runners: one per paper figure or study, plus run-scale presets.

:data:`FIGURES` is the one figure registry: the CLI lists and runs
figures and studies from it, and ``repro reproduce`` derives its
runners from the entries that have an expectation spec.
Every runner takes ``scale, seed, jobs, chunk`` as keywords.  The
chaos search (:mod:`.chaos`) is not re-exported here, so the figure
commands never import it.
"""

from typing import Callable

from .faultsweep import fault_sweep, sweep_plans
from .figures import (
    FigureResult,
    ablation_aging,
    ablation_ddio,
    ablation_l3,
    ablation_walkers,
    extension_hugepages,
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
    generality_single_page,
    model_fit,
)
from .settings import FULL, QUICK, RunScale

__all__ = [
    "FIGURES",
    "FigureResult",
    "fig2_flows",
    "fig3_ring",
    "model_fit",
    "fig7_fns_flows",
    "fig8_fns_ring",
    "fig9_rpc_latency",
    "fig10_rxtx",
    "fig11_redis",
    "fig11_nginx",
    "fig11_spdk",
    "fig12_ablation",
    "ablation_l3",
    "ablation_aging",
    "ablation_walkers",
    "ablation_ddio",
    "generality_single_page",
    "extension_hugepages",
    "fault_sweep",
    "sweep_plans",
    "RunScale",
    "QUICK",
    "FULL",
]

# Figure key -> (runner, one-line description): the paper's figures in
# its order, then the studies beyond them, then the fault sweep.
FIGURES: dict[str, tuple[Callable, str]] = {
    "fig2": (fig2_flows, "Linux strict vs IOMMU off, varying flows"),
    "fig3": (fig3_ring, "Linux strict vs IOMMU off, varying ring size"),
    "model": (model_fit, "Section 2.2 analytic throughput model"),
    "fig7": (fig7_fns_flows, "F&S vs strict vs off, varying flows"),
    "fig8": (fig8_fns_ring, "F&S under increasing ring sizes"),
    "fig9": (fig9_rpc_latency, "RPC tail latency under colocation"),
    "fig10": (fig10_rxtx, "Concurrent Rx/Tx interference (Ice Lake)"),
    "fig11a": (fig11_redis, "Redis SET throughput"),
    "fig11b": (fig11_nginx, "Nginx throughput"),
    "fig11c": (fig11_spdk, "SPDK remote read throughput"),
    "fig12": (fig12_ablation, "Ablation: each F&S idea is necessary"),
    "ablation-l3": (ablation_l3, "PTcache-L3 capacity sweep"),
    "ablation-aging": (ablation_aging, "Allocator aging sweep"),
    "ablation-walkers": (ablation_walkers, "Walker concurrency sweep"),
    "ablation-ddio": (ablation_ddio, "DDIO on/off"),
    "generality": (
        generality_single_page, "Section 3: single-page descriptors"
    ),
    "extension-huge": (
        extension_hugepages, "Section 5: F&S with 2 MB hugepages"
    ),
    "faults": (fault_sweep, "Fault sweep: throughput degrades, safety holds"),
}
