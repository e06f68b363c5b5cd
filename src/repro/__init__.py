"""repro — a simulation-based reproduction of "Fast & Safe IO Memory
Protection" (SOSP 2024).

The package models the complete NIC-to-memory datapath of a modern
server — IOMMU (IO page table, IOTLB, PTcache-L1/L2/L3, invalidation
queue), Linux IOVA allocation (top-down range scan + per-CPU caches), a
multi-page-descriptor NIC, the PCIe DMA pipeline, DCTCP transport, and
a per-core CPU model — and implements four memory-protection modes
behind one driver interface: IOMMU-off, Linux strict, Linux deferred,
and F&S (with its three ideas independently toggleable for the paper's
ablation).

Quick start::

    from repro import run_iperf

    linux = run_iperf("strict", flows=5)
    fns = run_iperf("fns", flows=5)
    print(linux.rx_goodput_gbps, "->", fns.rx_goodput_gbps)

See ``examples/`` for richer scenarios; ``python -m repro reproduce``
runs the paper's evaluation and ``python -m repro run <figure>``
prints any one figure or study.
"""

from .apps import (
    AppResult,
    run_bidirectional_iperf,
    run_iperf,
    run_netperf_rpc,
    run_nginx,
    run_redis,
    run_spdk,
)
from .host import Host, HostConfig, RemotePeer, Testbed, TestbedResult
from .iommu import DmaFault, Iommu, IommuConfig
from .protection import (
    DeferredDriver,
    PassthroughDriver,
    ProtectionDriver,
    StrictFamilyDriver,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "HostConfig",
    "Testbed",
    "TestbedResult",
    "AppResult",
    "Host",
    "RemotePeer",
    "Iommu",
    "IommuConfig",
    "DmaFault",
    "ProtectionDriver",
    "PassthroughDriver",
    "StrictFamilyDriver",
    "DeferredDriver",
    "run_iperf",
    "run_bidirectional_iperf",
    "run_netperf_rpc",
    "run_redis",
    "run_nginx",
    "run_spdk",
]
