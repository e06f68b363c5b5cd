"""Every paper figure and study beyond it, as one table of sweeps.

Each :class:`Figure` in :data:`FIGURE_TABLE` names a figure's grid (a
point runner, its protection modes and x values) and how one swept
cell becomes a table row.  :func:`sweep` turns an entry into
:class:`~repro.parallel.spec.PointSpec` cells and hands them to
:func:`repro.parallel.run_points`, which runs them serially by default
or fans them across worker processes when ``jobs > 1`` — with
byte-identical rows, raw results and metric phases either way.  Row
formatting always happens here, in the parent, from the returned
point objects.

``repro run`` prints these tables and ``repro reproduce`` gates the
paper's figures against their claims; the integration tests assert
the qualitative shapes (who wins, what is zero, what grows).  The
studies (design-knob ablations, §3 generality, §5 hugepages) sweep a
host or IOMMU knob the same way; no paper claim gates them, so their
shapes are asserted in the tests alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

# Not called here: cells summarize their own locality (apps.iperf).
# Kept as the traced bench's span target until its span table moves
# next to the code it names (ROADMAP item 4).
from ..analysis.locality import summarize_locality  # noqa: F401
from ..analysis.model import ModelPoint, fit_l0_lm, model_error, throughput_gbps
from ..analysis.report import format_figure
from ..host.config import DEFAULT_MTU_BYTES
from ..host.testbed import LINK_GBPS
from ..mem.latency import DEFAULT_L0_NS, DEFAULT_LM_NS
from ..parallel import PointSpec, derive_seed, run_points
from .settings import FULL, RunScale

__all__ = ["FigureResult", "Figure", "FIGURE_TABLE", "sweep"]


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

    def row(self, mode: str, x) -> list:
        """The row of cell ``(mode, x)``.

        ``sweep`` appends each cell's row and ``raw`` entry in the same
        order (a ``finish`` step adds ``raw`` keys only after the
        cells), so the cell's position in ``raw`` is its row's.
        """
        for candidate, cell in zip(self.rows, self.raw):
            if cell == (mode, x):
                return candidate
        raise KeyError((mode, x))


@dataclass(frozen=True)
class Figure:
    """One figure or study: its sweep grid and how a cell becomes a row."""

    key: str  # CLI key, e.g. "fig2"
    figure_id: str  # table heading and cell coordinate, e.g. "Fig 2"
    title: str
    description: str  # the one line ``repro list`` prints
    runner: str  # key into repro.experiments.points.POINT_RUNNERS
    modes: tuple[str, ...]
    x_name: Optional[str]  # the label's x name; None: labels omit x
    xs: tuple
    headers: tuple[str, ...]
    row: Callable[[str, Any, Any], list]  # (mode, x, point) -> row
    # Cell order: every mode at each x, instead of each mode over xs.
    x_major: bool = False
    # A post-step over the swept result (rows, raw and notes).
    finish: Optional[Callable[[FigureResult], None]] = None

    def label(self, mode: str, x) -> str:
        """The cell's metrics phase label (also a cache-key part)."""
        if self.x_name is None:
            return f"{self.figure_id} {mode}"
        return f"{self.figure_id} {mode} {self.x_name}={x}"


def sweep(
    figure: Figure,
    scale: RunScale = FULL,
    seed: int = 1,
    jobs: Optional[int] = None,
    chunk: Optional[int] = None,
    modes: Optional[Sequence[str]] = None,
    xs: Optional[Sequence] = None,
) -> FigureResult:
    """Run ``figure``'s grid (or the ``modes`` × ``xs`` subgrid)."""
    modes = figure.modes if modes is None else modes
    xs = figure.xs if xs is None else xs
    grid = (
        [(mode, x) for x in xs for mode in modes]
        if figure.x_major
        else [(mode, x) for mode in modes for x in xs]
    )
    specs = [
        PointSpec(
            figure=figure.figure_id,
            runner=figure.runner,
            mode=mode,
            x=x,
            label=figure.label(mode, x),
            seed=derive_seed(seed, figure.figure_id, mode, x),
        )
        for mode, x in grid
    ]
    result = FigureResult(figure.figure_id, figure.title, list(figure.headers))
    for spec, point in zip(specs, run_points(specs, scale, jobs=jobs, chunk=chunk)):
        result.rows.append(figure.row(spec.mode, spec.x, point))
        result.raw[(spec.mode, spec.x)] = point
    if figure.finish is not None:
        figure.finish(result)
    return result


IPERF_COLUMNS = (
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
)


def _iperf_row(mode: str, x, result) -> list:
    locality = result.locality
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


# The §2.2 model T = p/(l0 + M·lm), checked two ways as the paper
# does: (1) the paper's fitted constants (l0 = 65 ns, lm = 197 ns)
# predict the simulator's measured strict-mode throughput from its
# measured M; (2) re-fitting the constants from the swept points
# (non-negative least squares) recovers the same magnitudes.
def _model_point(result) -> ModelPoint:
    return ModelPoint(
        DEFAULT_MTU_BYTES, result.memory_reads_per_page, result.rx_goodput_gbps
    )


def _model_row(mode: str, x, result) -> list:
    point = _model_point(result)
    paper = throughput_gbps(
        point.packet_bytes,
        point.memory_reads,
        DEFAULT_L0_NS,
        DEFAULT_LM_NS,
        LINK_GBPS,
    )
    return [
        x,
        round(point.memory_reads, 2),
        round(point.measured_gbps, 1),
        round(paper, 1),
        round(
            model_error(point, DEFAULT_L0_NS, DEFAULT_LM_NS, LINK_GBPS) * 100, 1
        ),
    ]


def _model_refit(result: FigureResult) -> None:
    points = [_model_point(swept) for swept in result.raw.values()]
    l0, lm = fit_l0_lm(points)
    result.raw["l0_ns"] = l0
    result.raw["lm_ns"] = lm
    result.notes = (
        f"refit l0 = {l0:.0f} ns, lm = {lm:.0f} ns "
        f"(paper: l0 = {DEFAULT_L0_NS:.0f} ns, lm = {DEFAULT_LM_NS:.0f} ns)"
    )
    for row, point in zip(result.rows, points):
        refit = throughput_gbps(
            point.packet_bytes, point.memory_reads, l0, lm, LINK_GBPS
        )
        row.append(round(refit, 1))


def _rpc_row(mode: str, x, result) -> list:
    us = {k: v / 1000 for k, v in result.percentiles_ns.items()}
    return [
        mode,
        x,
        result.rpc_count,
        *(round(us.get(p, 0.0), 1) for p in (50.0, 90.0, 99.0, 99.9, 99.99)),
        round(result.background_gbps, 1),
    ]


ALL_MODES = ("off", "strict", "fns")

# Key -> entry, in ``repro list`` order: the paper's figures, then the
# studies beyond them.  Each entry reads: key, figure id, title, list
# description; point runner, modes, x name, xs; headers; row.
FIGURE_TABLE: dict[str, Figure] = {
    figure.key: figure
    for figure in (
        Figure(
            "fig2", "Fig 2", "Linux strict vs IOMMU off, varying flows",
            "Linux strict vs IOMMU off, varying flows",
            "iperf_flows", ("off", "strict"), "flows", (5, 10, 20, 40),
            ("mode", "flows") + IPERF_COLUMNS,
            _iperf_row,
        ),
        Figure(
            "fig3", "Fig 3", "Linux strict vs IOMMU off, varying ring size",
            "Linux strict vs IOMMU off, varying ring size",
            "iperf_ring", ("off", "strict"), "ring", (256, 512, 1024, 2048),
            ("mode", "ring") + IPERF_COLUMNS,
            _iperf_row,
        ),
        Figure(
            "model", "Model",
            "Section 2.2 throughput model: paper constants vs simulation",
            "Section 2.2 analytic throughput model",
            "iperf_flows", ("strict",), "flows", (5, 10, 20, 40),
            (
                "flows", "M", "measured_gbps", "paper_model_gbps",
                "paper_err%", "refit_model_gbps",
            ),
            _model_row,
            finish=_model_refit,
        ),
        Figure(
            "fig7", "Fig 7", "F&S eliminates memory-protection overheads (flows)",
            "F&S vs strict vs off, varying flows",
            "iperf_flows", ALL_MODES, "flows", (5, 10, 20, 40),
            ("mode", "flows") + IPERF_COLUMNS,
            _iperf_row,
        ),
        Figure(
            "fig8", "Fig 8", "F&S under increasing ring sizes",
            "F&S under increasing ring sizes",
            "iperf_ring", ALL_MODES, "ring", (256, 512, 1024, 2048),
            ("mode", "ring") + IPERF_COLUMNS,
            _iperf_row,
        ),
        Figure(
            "fig9", "Fig 9", "RPC tail latency (us) colocated with iperf",
            "RPC tail latency under colocation",
            "netperf_rpc", ALL_MODES, "rpc", (128, 1024, 4096, 32768),
            (
                "mode", "rpc_bytes", "n", "p50", "p90", "p99", "p99.9",
                "p99.99", "bg_gbps",
            ),
            _rpc_row,
        ),
        Figure(
            "fig10", "Fig 10", "Concurrent Rx and Tx iperf (Ice Lake)",
            "Concurrent Rx/Tx interference (Ice Lake)",
            "bidir_iperf", ALL_MODES, "cores", (1, 2, 4),
            ("mode", "cores", "rx_gbps", "tx_gbps", "drop%"),
            lambda mode, x, r: [
                mode,
                x,
                round(r.rx_goodput_gbps, 1),
                round(r.tx_goodput_gbps, 1),
                round(r.drop_fraction * 100, 2),
            ],
        ),
        Figure(
            "fig11a", "Fig 11a", "Redis SET throughput", "Redis SET throughput",
            "redis", ALL_MODES, "value", (4096, 8192, 32768, 131072),
            ("mode", "value_bytes", "gbps", "kreq/s", "iotlb/pg"),
            lambda mode, x, r: [
                mode,
                x,
                round(r.goodput_gbps, 1),
                round(r.requests_per_second / 1000, 0),
                round(r.iotlb_misses_per_page, 2),
            ],
        ),
        Figure(
            "fig11b", "Fig 11b", "Nginx throughput", "Nginx throughput",
            "nginx", ALL_MODES, "page", (131072, 524288, 2097152),
            ("mode", "page_bytes", "gbps", "req/s"),
            lambda mode, x, r: [
                mode,
                x,
                round(r.goodput_gbps, 1),
                round(r.requests_per_second, 0),
            ],
        ),
        Figure(
            "fig11c", "Fig 11c", "SPDK remote read throughput",
            "SPDK remote read throughput",
            "spdk", ALL_MODES, "block", (32768, 65536, 262144),
            ("mode", "block_bytes", "gbps", "kiops", "iotlb/pg"),
            lambda mode, x, r: [
                mode,
                x,
                round(r.goodput_gbps, 1),
                round(r.requests_per_second / 1000, 1),
                round(r.iotlb_misses_per_page, 2),
            ],
        ),
        # Each F&S idea is necessary (Redis, 8 KB values): A = preserve
        # PTcaches; B = contiguous IOVA + batched invalidation.
        Figure(
            "fig12", "Fig 12", "Contribution of each F&S idea (Redis 8 KB SET)",
            "Ablation: each F&S idea is necessary",
            "redis", ("strict", "linux+A", "linux+B", "fns", "off"), None, (8192,),
            ("mode", "value_bytes", "gbps", "l3/pg", "iotlb/pg"),
            lambda mode, x, r: [
                mode,
                x,
                round(r.goodput_gbps, 1),
                round(r.ptcache_l3_misses_per_page, 3),
                round(r.iotlb_misses_per_page, 2),
            ],
        ),
        # PTcache-L3 capacity over the paper's 64-128 estimate (Fig 2e):
        # a bigger cache cannot remove strict mode's misses
        # (invalidations, not capacity, drive them); F&S stays at zero.
        Figure(
            "ablation-l3", "Ablation-L3", "PTcache-L3 capacity sweep (iperf, 5 flows)",
            "PTcache-L3 capacity sweep",
            "iperf_l3_entries", ("strict", "fns"), "l3", (32, 64, 128),
            ("mode", "l3_entries", "gbps", "m3/pg"),
            lambda mode, x, r: [
                mode,
                x,
                round(r.rx_goodput_gbps, 1),
                round(r.ptcache_l3_misses_per_page, 3),
            ],
            x_major=True,
        ),
        # Cold-boot vs long-uptime allocator state (DESIGN.md §5.9).
        Figure(
            "ablation-aging", "Ablation-aging",
            "Allocator aging sweep (strict, iperf, 5 flows)",
            "Allocator aging sweep",
            "iperf_aging", ("strict",), "aging", (0, 16384, 65536),
            ("aging_iovas", "gbps", "m3/pg", "iotlb/pg"),
            lambda mode, x, r: [
                x,
                round(r.rx_goodput_gbps, 1),
                round(r.ptcache_l3_misses_per_page, 3),
                round(r.iotlb_misses_per_page, 2),
            ],
        ),
        # Concurrent page-walker count: more walkers hide miss cost.
        Figure(
            "ablation-walkers", "Ablation-walkers",
            "Walker concurrency sweep (strict, iperf, 5 flows)",
            "Walker concurrency sweep",
            "iperf_walkers", ("strict",), "walkers", (1, 2, 4),
            ("walkers", "gbps", "M"),
            lambda mode, x, r: [
                x,
                round(r.rx_goodput_gbps, 1),
                round(r.memory_reads_per_page, 2),
            ],
        ),
        # Tech-report extra: the paper found DDIO only changes CPU
        # utilization, not IOMMU cache behaviour.
        Figure(
            "ablation-ddio", "Ablation-DDIO", "DDIO on/off (strict, iperf, 5 flows)",
            "DDIO on/off",
            "iperf_ddio", ("strict",), "ddio", ("off", "on"),
            ("ddio", "gbps", "M", "max_cpu%"),
            lambda mode, x, r: [
                x,
                round(r.rx_goodput_gbps, 1),
                round(r.memory_reads_per_page, 2),
                round(r.max_core_utilization * 100, 1),
            ],
        ),
        # §3 generality: single-page descriptors (e.g. Intel ICE).  F&S's
        # contiguous allocation and PTcache preservation still apply,
        # but strict safety forces one invalidation per page, so
        # batched invalidation loses its leverage.  The paper leaves
        # this to future work.
        Figure(
            "generality", "Generality",
            "Single-page vs 64-page descriptors (iperf, 5 flows)",
            "Section 3: single-page descriptors",
            "iperf_descriptor_pages", ("strict", "fns"), "desc_pages", (1, 64),
            ("mode", "desc_pages", "gbps", "m1/pg", "m3/pg", "inval/pg"),
            lambda mode, x, r: [
                mode,
                x,
                round(r.rx_goodput_gbps, 1),
                round(r.ptcache_l1_misses_per_page, 3),
                round(r.ptcache_l3_misses_per_page, 3),
                round(r.invalidation_requests / r.rx_data_pages, 2),
            ],
            x_major=True,
        ),
        # §5 future work: F&S with 2 MB hugepage descriptors.  Each
        # descriptor is one PT-L3 leaf, unmapped and invalidated as a
        # 2 MB unit when it completes: strict safety at descriptor
        # granularity, with the compulsory IOTLB miss rate falling from
        # one per 4 KB page toward one per 512 pages.  Runs at ring 1024.
        Figure(
            "extension-huge", "Extension-huge",
            "F&S with 2 MB hugepage descriptors (iperf, 5 flows)",
            "Section 5: F&S with 2 MB hugepages",
            "iperf_ring", ("strict", "fns", "fns-huge", "off"), "ring", (1024,),
            ("mode", "gbps", "iotlb/pg", "M", "inval/pg", "max_cpu%"),
            lambda mode, x, r: [
                mode,
                round(r.rx_goodput_gbps, 1),
                round(r.iotlb_misses_per_page, 3),
                round(r.memory_reads_per_page, 3),
                round(r.invalidation_requests / r.rx_data_pages, 3),
                round(r.max_core_utilization * 100, 1),
            ],
        ),
    )
}
