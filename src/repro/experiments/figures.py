"""One runner per paper figure, plus six studies beyond the paper's.

Each ``fig*`` function sweeps the figure's x-axis for the relevant
protection modes and returns a :class:`FigureResult` whose rows are the
series the paper plots.  ``repro run`` prints these tables and
``repro reproduce`` gates them against the paper's claims; the
integration tests assert the qualitative shapes (who wins, what is
zero, what grows).  The studies (design-knob ablations, §3 generality,
§5 hugepages) sweep a host or IOMMU knob the same way; no paper claim
gates them, so their shapes are asserted in the tests alone.

Sweeps are declarative: each figure builds a list of
:class:`~repro.parallel.spec.PointSpec` cells and hands them to
:func:`repro.parallel.run_points`, which runs them serially by default
or fans them across worker processes when ``jobs > 1`` — with
byte-identical rows, raw results and metric phases either way.  Row
formatting always happens here, in the parent, from the returned
point objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..analysis.locality import summarize_locality
from ..analysis.model import ModelPoint, fit_l0_lm, model_error
from ..analysis.report import format_figure
from ..parallel import PointSpec, derive_seed, run_points
from .settings import FULL, RunScale

__all__ = [
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
]


@dataclass
class FigureResult:
    """A reproduced figure: table rows plus free-form raw results."""

    figure_id: str
    title: str
    headers: list[str]
    rows: list[list] = field(default_factory=list)
    notes: str = ""
    raw: dict = field(default_factory=dict)

    def format(self) -> str:
        return format_figure(
            f"{self.figure_id}: {self.title}", self.headers, self.rows, self.notes
        )

    def series(self, mode: str) -> list[list]:
        return [row for row in self.rows if row[0] == mode]

    def row(self, mode: str, x) -> list:
        for candidate in self.rows:
            if candidate[0] == mode and candidate[1] == x:
                return candidate
        raise KeyError((mode, x))


IPERF_HEADERS = [
    "mode",
    "x",
    "gbps",
    "drop%",
    "iotlb/pg",
    "m1/pg",
    "m2/pg",
    "m3/pg",
    "M",
    "tx/pg",
    "loc_p95",
    "loc>64%",
]


def _iperf_row(mode: str, x, result) -> list:
    locality = summarize_locality(result.allocation_trace)
    return [
        mode,
        x,
        round(result.rx_goodput_gbps, 1),
        round(result.drop_fraction * 100, 3),
        round(result.iotlb_misses_per_page, 2),
        round(result.ptcache_l1_misses_per_page, 3),
        round(result.ptcache_l2_misses_per_page, 3),
        round(result.ptcache_l3_misses_per_page, 3),
        round(result.memory_reads_per_page, 2),
        round(result.tx_packets_per_page, 2),
        round(locality.p95_distance, 1),
        round(locality.fraction_above_64 * 100, 1),
    ]


def _grid_specs(
    figure_id: str,
    runner: str,
    modes: Sequence[str],
    x_name: str,
    x_values: Sequence,
    seed: int,
) -> list[PointSpec]:
    """The mode × x grid as point specs, in serial sweep order."""
    return [
        PointSpec(
            figure=figure_id,
            runner=runner,
            mode=mode,
            x=x,
            label=f"{figure_id} {mode} {x_name}={x}",
            seed=derive_seed(seed, figure_id, mode, x),
        )
        for mode in modes
        for x in x_values
    ]


def _sweep_iperf(
    figure_id: str,
    title: str,
    modes: Sequence[str],
    x_name: str,
    x_values: Sequence[int],
    scale: RunScale,
    jobs: Optional[int] = None,
    chunk: Optional[int] = None,
    seed: int = 1,
) -> FigureResult:
    headers = [x_name if h == "x" else h for h in IPERF_HEADERS]
    result = FigureResult(figure_id, title, headers)
    runner = "iperf_flows" if x_name == "flows" else "iperf_ring"
    specs = _grid_specs(figure_id, runner, modes, x_name, x_values, seed)
    for spec, point in zip(specs, run_points(specs, scale, jobs=jobs, chunk=chunk)):
        result.rows.append(_iperf_row(spec.mode, spec.x, point))
        result.raw[(spec.mode, spec.x)] = point
    return result


# ----------------------------------------------------------------------
# Figures 2 and 3: Linux strict vs IOMMU off (microbenchmarks)
# ----------------------------------------------------------------------
def fig2_flows(
    modes: Sequence[str] = ("off", "strict"),
    flows: Sequence[int] = (5, 10, 20, 40),
    scale: RunScale = FULL,
    jobs: Optional[int] = None,
    chunk: Optional[int] = None,
    seed: int = 1,
) -> FigureResult:
    """Fig 2: throughput/drops/misses/locality vs number of flows."""
    return _sweep_iperf(
        "Fig 2", "Linux strict vs IOMMU off, varying flows",
        modes, "flows", flows, scale, jobs=jobs, chunk=chunk, seed=seed,
    )


def fig3_ring(
    modes: Sequence[str] = ("off", "strict"),
    ring_sizes: Sequence[int] = (256, 512, 1024, 2048),
    scale: RunScale = FULL,
    jobs: Optional[int] = None,
    chunk: Optional[int] = None,
    seed: int = 1,
) -> FigureResult:
    """Fig 3: same metrics vs Rx ring buffer size (5 flows)."""
    return _sweep_iperf(
        "Fig 3", "Linux strict vs IOMMU off, varying ring size",
        modes, "ring", ring_sizes, scale, jobs=jobs, chunk=chunk, seed=seed,
    )


# ----------------------------------------------------------------------
# The Section 2.2 analytic model
# ----------------------------------------------------------------------
def model_fit(
    scale: RunScale = FULL,
    flows: Sequence[int] = (5, 10, 20, 40),
    jobs: Optional[int] = None,
    chunk: Optional[int] = None,
    seed: int = 1,
) -> FigureResult:
    """Validate §2.2's model T = p/(l0 + M·lm) against the simulator.

    Two checks, mirroring the paper: (1) with the paper's fitted
    constants (l0 = 65 ns, lm = 197 ns) the model predicts the
    simulator's measured strict-mode throughput from its measured M;
    (2) re-fitting the constants from the simulated points (non-
    negative least squares over the sweep) recovers the same
    magnitudes.
    """
    specs = [
        PointSpec(
            figure="Model",
            runner="iperf_flows",
            mode="strict",
            x=count,
            label=f"Model strict flows={count}",
            seed=derive_seed(seed, "Model", "strict", count),
        )
        for count in flows
    ]
    points: dict[int, ModelPoint] = {}
    for spec, measured in zip(specs, run_points(specs, scale, jobs=jobs, chunk=chunk)):
        points[spec.x] = ModelPoint(
            packet_bytes=4096,
            memory_reads=measured.memory_reads_per_page,
            measured_gbps=measured.rx_goodput_gbps,
        )
    l0, lm = fit_l0_lm(list(points.values()))
    result = FigureResult(
        "Model",
        "Section 2.2 throughput model: paper constants vs simulation",
        [
            "flows",
            "M",
            "measured_gbps",
            "paper_model_gbps",
            "paper_err%",
            "refit_model_gbps",
        ],
        notes=f"refit l0 = {l0:.0f} ns, lm = {lm:.0f} ns "
        "(paper: l0 = 65 ns, lm = 197 ns)",
    )
    result.raw["l0_ns"] = l0
    result.raw["lm_ns"] = lm
    for count, point in points.items():
        paper_error = model_error(point, 65.0, 197.0, link_gbps=100.0)
        paper_predicted = min(
            point.packet_bytes * 8 / (65.0 + point.memory_reads * 197.0),
            100.0,
        )
        refit_predicted = min(
            point.packet_bytes * 8 / (l0 + point.memory_reads * lm), 100.0
        )
        result.rows.append(
            [
                count,
                round(point.memory_reads, 2),
                round(point.measured_gbps, 1),
                round(paper_predicted, 1),
                round(paper_error * 100, 1),
                round(refit_predicted, 1),
            ]
        )
        result.raw[("error", count)] = paper_error
    return result


# ----------------------------------------------------------------------
# Figures 7 and 8: F&S on the microbenchmarks
# ----------------------------------------------------------------------
def fig7_fns_flows(
    modes: Sequence[str] = ("off", "strict", "fns"),
    flows: Sequence[int] = (5, 10, 20, 40),
    scale: RunScale = FULL,
    jobs: Optional[int] = None,
    chunk: Optional[int] = None,
    seed: int = 1,
) -> FigureResult:
    """Fig 7: F&S vs Linux strict vs IOMMU off, varying flows."""
    return _sweep_iperf(
        "Fig 7", "F&S eliminates memory-protection overheads (flows)",
        modes, "flows", flows, scale, jobs=jobs, chunk=chunk, seed=seed,
    )


def fig8_fns_ring(
    modes: Sequence[str] = ("off", "strict", "fns"),
    ring_sizes: Sequence[int] = (256, 512, 1024, 2048),
    scale: RunScale = FULL,
    jobs: Optional[int] = None,
    chunk: Optional[int] = None,
    seed: int = 1,
) -> FigureResult:
    """Fig 8: F&S locality holds as the IO working set grows."""
    return _sweep_iperf(
        "Fig 8", "F&S under increasing ring sizes",
        modes, "ring", ring_sizes, scale, jobs=jobs, chunk=chunk, seed=seed,
    )


# ----------------------------------------------------------------------
# Figure 9: RPC tail latency under colocation
# ----------------------------------------------------------------------
def fig9_rpc_latency(
    modes: Sequence[str] = ("off", "strict", "fns"),
    rpc_sizes: Sequence[int] = (128, 1024, 4096, 32768),
    scale: RunScale = FULL,
    jobs: Optional[int] = None,
    chunk: Optional[int] = None,
    seed: int = 1,
) -> FigureResult:
    """Fig 9: netperf RPC percentiles colocated with iperf."""
    result = FigureResult(
        "Fig 9",
        "RPC tail latency (us) colocated with iperf",
        ["mode", "rpc_bytes", "n", "p50", "p90", "p99", "p99.9", "p99.99", "bg_gbps"],
    )
    specs = _grid_specs("Fig 9", "netperf_rpc", modes, "rpc", rpc_sizes, seed)
    for spec, point in zip(specs, run_points(specs, scale, jobs=jobs, chunk=chunk)):
        us = {k: v / 1000 for k, v in point.percentiles_ns.items()}
        result.rows.append(
            [
                spec.mode,
                spec.x,
                point.rpc_count,
                round(us.get(50.0, 0.0), 1),
                round(us.get(90.0, 0.0), 1),
                round(us.get(99.0, 0.0), 1),
                round(us.get(99.9, 0.0), 1),
                round(us.get(99.99, 0.0), 1),
                round(point.background_gbps, 1),
            ]
        )
        result.raw[(spec.mode, spec.x)] = point
    return result


# ----------------------------------------------------------------------
# Figure 10: concurrent Rx and Tx data
# ----------------------------------------------------------------------
def fig10_rxtx(
    modes: Sequence[str] = ("off", "strict", "fns"),
    core_counts: Sequence[int] = (1, 2, 4),
    scale: RunScale = FULL,
    jobs: Optional[int] = None,
    chunk: Optional[int] = None,
    seed: int = 1,
) -> FigureResult:
    """Fig 10: Rx/Tx interference on the Ice Lake testbed."""
    result = FigureResult(
        "Fig 10",
        "Concurrent Rx and Tx iperf (Ice Lake)",
        ["mode", "cores", "rx_gbps", "tx_gbps", "drop%"],
    )
    specs = _grid_specs(
        "Fig 10", "bidir_iperf", modes, "cores", core_counts, seed
    )
    for spec, point in zip(specs, run_points(specs, scale, jobs=jobs, chunk=chunk)):
        result.rows.append(
            [
                spec.mode,
                spec.x,
                round(point.rx_goodput_gbps, 1),
                round(point.tx_goodput_gbps, 1),
                round(point.drop_fraction * 100, 2),
            ]
        )
        result.raw[(spec.mode, spec.x)] = point
    return result


# ----------------------------------------------------------------------
# Figure 11: real applications
# ----------------------------------------------------------------------
def fig11_redis(
    modes: Sequence[str] = ("off", "strict", "fns"),
    value_sizes: Sequence[int] = (4096, 8192, 32768, 131072),
    scale: RunScale = FULL,
    jobs: Optional[int] = None,
    chunk: Optional[int] = None,
    seed: int = 1,
) -> FigureResult:
    """Fig 11a: Redis 100% SET throughput by value size."""
    result = FigureResult(
        "Fig 11a",
        "Redis SET throughput",
        ["mode", "value_bytes", "gbps", "kreq/s", "iotlb/pg"],
    )
    specs = _grid_specs("Fig 11a", "redis", modes, "value", value_sizes, seed)
    for spec, point in zip(specs, run_points(specs, scale, jobs=jobs, chunk=chunk)):
        result.rows.append(
            [
                spec.mode,
                spec.x,
                round(point.goodput_gbps, 1),
                round(point.requests_per_second / 1000, 0),
                round(point.iotlb_misses_per_page, 2),
            ]
        )
        result.raw[(spec.mode, spec.x)] = point
    return result


def fig11_nginx(
    modes: Sequence[str] = ("off", "strict", "fns"),
    page_sizes: Sequence[int] = (131072, 524288, 2097152),
    scale: RunScale = FULL,
    jobs: Optional[int] = None,
    chunk: Optional[int] = None,
    seed: int = 1,
) -> FigureResult:
    """Fig 11b: Nginx page-serving throughput by page size."""
    result = FigureResult(
        "Fig 11b",
        "Nginx throughput",
        ["mode", "page_bytes", "gbps", "req/s"],
    )
    specs = _grid_specs("Fig 11b", "nginx", modes, "page", page_sizes, seed)
    for spec, point in zip(specs, run_points(specs, scale, jobs=jobs, chunk=chunk)):
        result.rows.append(
            [
                spec.mode,
                spec.x,
                round(point.goodput_gbps, 1),
                round(point.requests_per_second, 0),
            ]
        )
        result.raw[(spec.mode, spec.x)] = point
    return result


def fig11_spdk(
    modes: Sequence[str] = ("off", "strict", "fns"),
    block_sizes: Sequence[int] = (32768, 65536, 262144),
    scale: RunScale = FULL,
    jobs: Optional[int] = None,
    chunk: Optional[int] = None,
    seed: int = 1,
) -> FigureResult:
    """Fig 11c: SPDK remote read throughput by block size."""
    result = FigureResult(
        "Fig 11c",
        "SPDK remote read throughput",
        ["mode", "block_bytes", "gbps", "kiops", "iotlb/pg"],
    )
    specs = _grid_specs("Fig 11c", "spdk", modes, "block", block_sizes, seed)
    for spec, point in zip(specs, run_points(specs, scale, jobs=jobs, chunk=chunk)):
        result.rows.append(
            [
                spec.mode,
                spec.x,
                round(point.goodput_gbps, 1),
                round(point.iops / 1000, 1),
                round(point.iotlb_misses_per_page, 2),
            ]
        )
        result.raw[(spec.mode, spec.x)] = point
    return result


# ----------------------------------------------------------------------
# Figure 12: ablation of F&S's ideas
# ----------------------------------------------------------------------
def fig12_ablation(
    modes: Sequence[str] = ("strict", "linux+A", "linux+B", "fns", "off"),
    value_bytes: int = 8192,
    scale: RunScale = FULL,
    jobs: Optional[int] = None,
    chunk: Optional[int] = None,
    seed: int = 1,
) -> FigureResult:
    """Fig 12: each F&S idea is necessary (Redis, 8 KB values).

    A = preserve PTcaches; B = contiguous IOVA + batched invalidation.
    """
    result = FigureResult(
        "Fig 12",
        "Contribution of each F&S idea (Redis 8 KB SET)",
        ["mode", "value_bytes", "gbps", "l3/pg", "iotlb/pg"],
    )
    specs = [
        PointSpec(
            figure="Fig 12",
            runner="redis",
            mode=mode,
            x=value_bytes,
            label=f"Fig 12 {mode}",
            seed=derive_seed(seed, "Fig 12", mode, value_bytes),
        )
        for mode in modes
    ]
    for spec, point in zip(specs, run_points(specs, scale, jobs=jobs, chunk=chunk)):
        result.rows.append(
            [
                spec.mode,
                value_bytes,
                round(point.goodput_gbps, 1),
                round(point.ptcache_l3_misses_per_page, 3),
                round(point.iotlb_misses_per_page, 2),
            ]
        )
        result.raw[spec.mode] = point
    return result


# ----------------------------------------------------------------------
# Studies beyond the paper's figures
# ----------------------------------------------------------------------
def _knob_study(
    result: FigureResult,
    runner: str,
    modes: Sequence[str],
    x_name: str,
    x_values: Sequence,
    row,
    scale: RunScale,
    jobs: Optional[int],
    chunk: Optional[int],
    seed: int,
) -> FigureResult:
    """Sweep one knob, every mode at each value, one ``row`` per cell."""
    specs = [
        spec
        for x in x_values
        for spec in _grid_specs(
            result.figure_id, runner, modes, x_name, (x,), seed
        )
    ]
    for spec, point in zip(specs, run_points(specs, scale, jobs=jobs, chunk=chunk)):
        result.rows.append(row(spec, point))
        result.raw[(spec.mode, spec.x)] = point
    return result


def ablation_l3(
    scale: RunScale = FULL,
    jobs: Optional[int] = None,
    chunk: Optional[int] = None,
    seed: int = 1,
) -> FigureResult:
    """PTcache-L3 capacity over the paper's 64-128 estimate (Fig 2e).

    A bigger cache cannot remove strict mode's misses (invalidations,
    not capacity, drive them); F&S stays at zero.
    """
    return _knob_study(
        FigureResult(
            "Ablation-L3",
            "PTcache-L3 capacity sweep (iperf, 5 flows)",
            ["mode", "l3_entries", "gbps", "m3/pg"],
        ),
        "iperf_l3_entries", ("strict", "fns"), "l3", (32, 64, 128),
        lambda spec, point: [
            spec.mode,
            spec.x,
            round(point.rx_goodput_gbps, 1),
            round(point.ptcache_l3_misses_per_page, 3),
        ],
        scale, jobs, chunk, seed,
    )


def ablation_aging(
    scale: RunScale = FULL,
    jobs: Optional[int] = None,
    chunk: Optional[int] = None,
    seed: int = 1,
) -> FigureResult:
    """Cold-boot vs long-uptime allocator state (DESIGN.md §5.9)."""
    return _knob_study(
        FigureResult(
            "Ablation-aging",
            "Allocator aging sweep (strict, iperf, 5 flows)",
            ["aging_iovas", "gbps", "m3/pg", "iotlb/pg"],
        ),
        "iperf_aging", ("strict",), "aging", (0, 16384, 65536),
        lambda spec, point: [
            spec.x,
            round(point.rx_goodput_gbps, 1),
            round(point.ptcache_l3_misses_per_page, 3),
            round(point.iotlb_misses_per_page, 2),
        ],
        scale, jobs, chunk, seed,
    )


def ablation_walkers(
    scale: RunScale = FULL,
    jobs: Optional[int] = None,
    chunk: Optional[int] = None,
    seed: int = 1,
) -> FigureResult:
    """Concurrent page-walker count: more walkers hide miss cost."""
    return _knob_study(
        FigureResult(
            "Ablation-walkers",
            "Walker concurrency sweep (strict, iperf, 5 flows)",
            ["walkers", "gbps", "M"],
        ),
        "iperf_walkers", ("strict",), "walkers", (1, 2, 4),
        lambda spec, point: [
            spec.x,
            round(point.rx_goodput_gbps, 1),
            round(point.memory_reads_per_page, 2),
        ],
        scale, jobs, chunk, seed,
    )


def ablation_ddio(
    scale: RunScale = FULL,
    jobs: Optional[int] = None,
    chunk: Optional[int] = None,
    seed: int = 1,
) -> FigureResult:
    """Tech-report extra: DDIO on/off.

    The paper found DDIO only changes CPU utilization, not IOMMU cache
    behaviour.
    """
    return _knob_study(
        FigureResult(
            "Ablation-DDIO",
            "DDIO on/off (strict, iperf, 5 flows)",
            ["ddio", "gbps", "M", "max_cpu%"],
        ),
        "iperf_ddio", ("strict",), "ddio", ("off", "on"),
        lambda spec, point: [
            spec.x,
            round(point.rx_goodput_gbps, 1),
            round(point.memory_reads_per_page, 2),
            round(point.max_core_utilization * 100, 1),
        ],
        scale, jobs, chunk, seed,
    )


def generality_single_page(
    scale: RunScale = FULL,
    jobs: Optional[int] = None,
    chunk: Optional[int] = None,
    seed: int = 1,
) -> FigureResult:
    """§3 generality: single-page descriptors (e.g. Intel ICE).

    F&S's contiguous allocation and PTcache preservation still apply,
    but strict safety forces one invalidation per page, so batched
    invalidation loses its leverage.  The paper leaves this to future
    work.
    """
    return _knob_study(
        FigureResult(
            "Generality",
            "Single-page vs 64-page descriptors (iperf, 5 flows)",
            ["mode", "desc_pages", "gbps", "m1/pg", "m3/pg", "inval/pg"],
        ),
        "iperf_descriptor_pages", ("strict", "fns"), "desc_pages", (1, 64),
        lambda spec, point: [
            spec.mode,
            spec.x,
            round(point.rx_goodput_gbps, 1),
            round(point.ptcache_l1_misses_per_page, 3),
            round(point.ptcache_l3_misses_per_page, 3),
            round(point.invalidation_requests / point.rx_data_pages, 2),
        ],
        scale, jobs, chunk, seed,
    )


def extension_hugepages(
    scale: RunScale = FULL,
    jobs: Optional[int] = None,
    chunk: Optional[int] = None,
    seed: int = 1,
) -> FigureResult:
    """§5 future work: F&S with 2 MB hugepage descriptors.

    Each descriptor is one PT-L3 leaf, unmapped and invalidated as a
    2 MB unit when it completes: strict safety at descriptor
    granularity, with the compulsory IOTLB miss rate falling from one
    per 4 KB page toward one per 512 pages.  Runs at ring 1024.
    """
    return _knob_study(
        FigureResult(
            "Extension-huge",
            "F&S with 2 MB hugepage descriptors (iperf, 5 flows)",
            ["mode", "gbps", "iotlb/pg", "M", "inval/pg", "max_cpu%"],
        ),
        "iperf_ring", ("strict", "fns", "fns-huge", "off"), "ring", (1024,),
        lambda spec, point: [
            spec.mode,
            round(point.rx_goodput_gbps, 1),
            round(point.iotlb_misses_per_page, 3),
            round(point.memory_reads_per_page, 3),
            round(point.invalidation_requests / point.rx_data_pages, 3),
            round(point.max_core_utilization * 100, 1),
        ],
        scale, jobs, chunk, seed,
    )
