"""Where publish gets its data: report documents and trace files.

The publish pipeline never computes sweep data itself.  It either
loads an existing ``report.json`` (``--from-report``, the CI path) or
generates one through the same
:func:`repro.obs.expect.reproduce.collect_sections` loop that
``repro reproduce`` uses — so the data behind a published figure is
byte-identical to the gated report at any ``--jobs``.

The trace digest likewise prefers a ``--trace`` file from a previous
``repro report`` run; without one, :func:`record_trace` records a
fresh deterministic trace (Fig 12 at quick scale, serial — spans
cannot merge across processes).
"""

from __future__ import annotations

import json
from typing import Callable, Optional

from ...context import using
from ...experiments.settings import FULL, QUICK, RunScale
from ..registry import MetricsRegistry
from ..tracer import SpanTracer
from ..expect.reproduce import (
    REPORT_SCHEMA,
    _runner_kwargs,
    collect_sections,
    default_runners,
    provenance,
    report_doc,
)

__all__ = [
    "load_report",
    "generate_report",
    "record_trace",
    "resolve_scale",
]

# The figure recorded for the default trace digest: the Fig 12
# ablation is the cheapest sweep that still exercises every
# protection-mode code path.
TRACE_FIGURE = "fig12"


def resolve_scale(full: bool) -> RunScale:
    return FULL if full else QUICK


def load_report(path: str) -> dict:
    """Load and validate an existing ``report.json`` document."""
    with open(path) as handle:
        doc = json.load(handle)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: not a JSON object")
    schema = doc.get("schema")
    if schema != REPORT_SCHEMA:
        raise ValueError(
            f"{path}: schema {schema!r} != {REPORT_SCHEMA!r} "
            "(regenerate with `repro reproduce`)"
        )
    for key in ("provenance", "figures", "summary"):
        if key not in doc:
            raise ValueError(f"{path}: missing {key!r}")
    return doc


def generate_report(
    figures: list[str],
    *,
    scale: RunScale,
    seed: int = 1,
    jobs: Optional[int] = None,
    chunk: Optional[int] = None,
    echo: Callable[[str], None] = print,
) -> dict:
    """Run the figure sweeps and build a report document in memory."""
    from ..expectations import SPECS

    sections = collect_sections(
        figures,
        scale=scale,
        seed=seed,
        jobs=jobs,
        chunk=chunk,
        echo=echo,
    )
    manifest = provenance(figures, scale, seed, SPECS)
    return report_doc(manifest, sections)


def record_trace(seed: int = 1) -> dict:
    """Record a deterministic span trace (Fig 12, quick, serial).

    Returns the Chrome-trace document the digest consumes; callers
    that want the raw file write ``doc`` themselves.  Serial by
    design: spans are per-process and cannot merge across a pool.
    """
    runner = default_runners()[TRACE_FIGURE]
    registry = MetricsRegistry(tracer=SpanTracer())
    with using(registry=registry):
        runner(**_runner_kwargs(runner, QUICK, None, seed))
    assert registry.tracer is not None
    return registry.tracer.to_dict()
