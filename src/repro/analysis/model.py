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

import dataclasses
from dataclasses import dataclass
from typing import Sequence

__all__ = [
    "throughput_gbps",
    "memory_reads_per_packet",
    "fit_l0_lm",
    "ModelPoint",
    "model_error",
    "snapshot_delta",
    "deltas_steady",
    "extrapolate_snapshot",
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
    l0_ns: float = 65.0,
    lm_ns: float = 197.0,
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


# ---------------------------------------------------------------------------
# Steady-state snapshot algebra (the epoch fast-forward's math half)
#
# The model above says steady-state throughput is a *rate*: between
# invalidation/workload transitions every measured counter grows
# linearly in time.  The fast-forward in ``Testbed.run`` exploits this
# by stepping short calibration epochs, checking that per-epoch counter
# deltas have converged, and then extrapolating the remaining window
# analytically.  These three helpers are the structure-generic algebra
# over the testbed's nested snapshot dicts (dicts of counters, lists of
# per-core floats, counter dataclasses, plain ints/floats).
# ---------------------------------------------------------------------------
def _is_counter_dataclass(value) -> bool:
    return dataclasses.is_dataclass(value) and not isinstance(value, type)


def snapshot_delta(old, new):
    """Element-wise ``new - old`` over a nested snapshot structure.

    Keys present only in ``new`` (a flow appearing mid-run) diff
    against zero.  Lists are fixed-shape (per-core arrays) and diff
    element-wise.  Counter dataclasses (e.g. ``IommuStats``) diff
    field-wise into a plain dict.
    """
    if _is_counter_dataclass(new):
        return {
            field.name: snapshot_delta(
                getattr(old, field.name, 0), getattr(new, field.name)
            )
            for field in dataclasses.fields(new)
        }
    if isinstance(new, dict):
        old_map = old if isinstance(old, dict) else {}
        return {
            key: snapshot_delta(old_map.get(key, 0), value)
            for key, value in new.items()
        }
    if isinstance(new, list):
        return [snapshot_delta(o, n) for o, n in zip(old, new)]
    return new - old


def deltas_steady(first, second, rtol: float, atol: float) -> bool:
    """Whether two consecutive epoch deltas agree within tolerance.

    Every numeric leaf must satisfy ``|b - a| <= atol + rtol *
    max(|a|, |b|)`` — the symmetric mixed-tolerance test.  Structures
    are compared over the union of keys (a key missing on one side is
    an implicit zero).
    """
    if isinstance(first, dict) or isinstance(second, dict):
        first_map = first if isinstance(first, dict) else {}
        second_map = second if isinstance(second, dict) else {}
        return all(
            deltas_steady(
                first_map.get(key, 0), second_map.get(key, 0), rtol, atol
            )
            for key in first_map.keys() | second_map.keys()
        )
    if isinstance(first, list):
        return len(first) == len(second) and all(
            deltas_steady(a, b, rtol, atol)
            for a, b in zip(first, second)
        )
    return abs(second - first) <= atol + rtol * max(abs(first), abs(second))


def extrapolate_snapshot(base, delta, scale: float):
    """``base - scale * delta``, element-wise, preserving leaf types.

    This produces the *adjusted* snapshot the fast-forward hands to the
    testbed's delta-based result computation: subtracting the scaled
    steady-state epoch delta from the warmup snapshot makes
    ``live - adjusted`` equal the stepped delta plus the extrapolated
    remainder, without mutating any live counter.  Integer leaves stay
    integers (rounded); keys of ``base`` absent from ``delta`` are
    carried through unchanged.  A counter-dataclass base is rebuilt as
    the same type from its field-wise adjustment.
    """
    if _is_counter_dataclass(base):
        delta_map = delta if isinstance(delta, dict) else {}
        return type(base)(
            **{
                field.name: (
                    extrapolate_snapshot(
                        getattr(base, field.name),
                        delta_map[field.name],
                        scale,
                    )
                    if field.name in delta_map
                    else getattr(base, field.name)
                )
                for field in dataclasses.fields(base)
            }
        )
    if isinstance(delta, dict):
        base_map = base if isinstance(base, dict) else {}
        out = dict(base_map)
        for key, value in delta.items():
            out[key] = extrapolate_snapshot(
                base_map.get(key, 0), value, scale
            )
        return out
    if isinstance(delta, list):
        return [
            extrapolate_snapshot(b, d, scale)
            for b, d in zip(base, delta)
        ]
    if isinstance(base, float) or isinstance(delta, float):
        return base - scale * delta
    return base - round(scale * delta)
