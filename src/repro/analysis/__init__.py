"""Analysis: throughput model, locality, percentiles, reporting."""

from .locality import (
    INFINITE,
    LocalitySummary,
    l3_key_stream,
    reuse_distances,
    summarize_locality,
)
from .metrics import PERCENTILES_FIG9, LatencyRecorder, percentile
from .model import (
    ModelPoint,
    fit_l0_lm,
    memory_reads_per_packet,
    model_error,
    throughput_gbps,
)
from .report import format_figure, format_table

__all__ = [
    "throughput_gbps",
    "memory_reads_per_packet",
    "fit_l0_lm",
    "model_error",
    "ModelPoint",
    "l3_key_stream",
    "reuse_distances",
    "summarize_locality",
    "LocalitySummary",
    "INFINITE",
    "percentile",
    "LatencyRecorder",
    "PERCENTILES_FIG9",
    "format_table",
    "format_figure",
]
