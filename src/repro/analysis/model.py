"""The paper's analytic throughput model (§2.2).

``T = p / (l0 + M * lm)`` — packet size over the per-packet DMA base
latency plus the page-walk memory reads times the per-read latency.
The paper fits ``l0 = 65 ns`` and ``lm = 197 ns`` from its 5- and
10-flow measurements and validates the model within 10% of measured
throughput across experiments; we provide the same fit (exact
two-point solve, least-squares for more points) and validation
helpers, which the model-fit benchmark exercises against the
simulator's own measurements.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..mem.latency import DEFAULT_L0_NS, DEFAULT_LM_NS

__all__ = [
    "throughput_gbps",
    "memory_reads_per_packet",
    "fit_l0_lm",
    "ModelPoint",
    "model_error",
]


@dataclass(frozen=True)
class ModelPoint:
    """One experiment's (packet size, reads/packet, measured Gbps)."""

    packet_bytes: int
    memory_reads: float
    measured_gbps: float


def throughput_gbps(
    packet_bytes: int,
    memory_reads: float,
    l0_ns: float = DEFAULT_L0_NS,
    lm_ns: float = DEFAULT_LM_NS,
    link_gbps: float = float("inf"),
) -> float:
    """Predicted PCIe-limited throughput, optionally capped at the link.

    ``memory_reads`` is the paper's M: IOTLB + counted PTcache misses
    per packet worth of data.
    """
    if packet_bytes <= 0:
        raise ValueError("packet size must be positive")
    latency_ns = l0_ns + memory_reads * lm_ns
    return min(packet_bytes * 8 / latency_ns, link_gbps)


def memory_reads_per_packet(
    iotlb_misses: float, m1: float, m2: float, m3: float
) -> float:
    """The paper's M = m_IOTLB + m1 + m2 + m3."""
    return iotlb_misses + m1 + m2 + m3


def fit_l0_lm(
    points: Sequence[ModelPoint], nonnegative: bool = True
) -> tuple[float, float]:
    """Fit (l0, lm) from measured points.

    Each point gives one linear equation ``l0 + M * lm = p / T``.  Two
    points solve exactly (the paper's method, using its 5- and 10-flow
    runs); more points are fit least-squares.  Both constants are
    latencies, so the default fit constrains them non-negative (plain
    least squares can go negative when the points are nearly
    collinear in M).
    """
    if len(points) < 2:
        raise ValueError("need at least two points to fit two constants")
    # numpy/scipy load here, not at module import: only the §2.2 model
    # figure fits, and every other reproduce process skips their import.
    import numpy as np

    coefficients = np.array([[1.0, pt.memory_reads] for pt in points])
    # p/T with T in Gbps == bits/ns: latency in ns.
    latencies = np.array(
        [pt.packet_bytes * 8 / pt.measured_gbps for pt in points]
    )
    if nonnegative:
        from scipy.optimize import nnls

        solution, _residual = nnls(coefficients, latencies)
    else:
        solution, *_ = np.linalg.lstsq(coefficients, latencies, rcond=None)
    l0, lm = float(solution[0]), float(solution[1])
    return l0, lm


def model_error(
    point: ModelPoint,
    l0_ns: float,
    lm_ns: float,
    link_gbps: float = float("inf"),
) -> float:
    """Relative error of the model's prediction for one point."""
    predicted = throughput_gbps(
        point.packet_bytes, point.memory_reads, l0_ns, lm_ns, link_gbps
    )
    return abs(predicted - point.measured_gbps) / point.measured_gbps
