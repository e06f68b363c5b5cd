"""Which calls are timed as which layer, and the per-layer metrics.

Every span wraps a public entry point of one layer of the simulator or
of the ``repro reproduce`` pipeline around it.  Nothing under ``src/``
is edited: :func:`install` patches the functions in place inside the
child process, before the first ``Testbed`` is built, and the metrics
are derived afterwards from the recorder's state plus the counters the
program already keeps (``MetricsRegistry`` phases and the
``provenance.cache`` stamp of ``report.json``).
"""

from __future__ import annotations

import functools
import importlib
import statistics

from spans import SpanRecorder

__all__ = [
    "install",
    "layer_metrics",
    "self_by_layer",
    "span_accounting_error",
]

# (span name, module, class, methods).  A method is wrapped on the
# class and on every subclass that overrides it.
CLASS_SPANS = [
    ("host.setup", "repro.host.server", "Host", ("__init__",)),
    ("host.rx", "repro.host.server", "Host", ("packet_from_wire",)),
    # The Tx entry points: data segments and the ACKs every Rx flow sends.
    ("host.tx", "repro.host.server", "Host", ("pump_tx_flow", "_send_ack")),
    (
        "protection.map",
        "repro.protection.base",
        "ProtectionDriver",
        ("make_rx_descriptor", "map_tx_page"),
    ),
    (
        "protection.unmap",
        "repro.protection.base",
        "ProtectionDriver",
        ("retire_rx_descriptor", "retire_tx_pages"),
    ),
    (
        "protection.translate",
        "repro.protection.base",
        "ProtectionDriver",
        ("translate_for_dma", "translate_for_dma_burst"),
    ),
    ("iommu.translate", "repro.iommu.iommu", "Iommu", ("translate",)),
    ("iommu.map", "repro.iommu.iommu", "Iommu", ("map_page", "map_range", "map_huge")),
    ("iommu.unmap", "repro.iommu.iommu", "Iommu", ("unmap_range",)),
    ("iommu.walk", "repro.iommu.pagetable", "IOPageTable", ("walk",)),
    (
        "iommu.ptcache_probe",
        "repro.iommu.ptcache",
        "PtCacheHierarchy",
        ("probe", "probe_upper"),
    ),
    (
        "iommu.invalidate",
        "repro.iommu.invalidation",
        "InvalidationQueue",
        (
            "submit_invalidation",
            "invalidate_range",
            "invalidate_ptcache_range",
            "submit_flush",
            "flush_all",
        ),
    ),
    ("iova.rcache", "repro.iova.caching", "CachingIovaAllocator", ("alloc", "free")),
    ("iova.rbtree", "repro.iova.allocator", "RbTreeIovaAllocator", ("alloc", "free")),
    (
        "iova.chunk",
        "repro.iova.contiguous",
        "ChunkIovaAllocator",
        (
            "alloc_chunk",
            "alloc_page",
            "alloc_page_with_chunk",
            "release_pages",
            "release_chunk",
        ),
    ),
    ("nic.offer", "repro.nic.device", "Nic", ("offer", "next_packet")),
    ("nic.ring", "repro.nic.ring", "RxRing", ("take_pages", "post", "pop_completed")),
    ("pcie.submit", "repro.pcie.link", "DmaPipeline", ("submit", "reserve_wire")),
    ("net.switch", "repro.net.switch", "SwitchPort", ("enqueue",)),
    (
        "net.dctcp",
        "repro.net.dctcp",
        "DctcpSender",
        ("enqueue_segments", "take_packets", "on_ack", "on_rto"),
    ),
    ("net.dctcp", "repro.net.dctcp", "DctcpReceiver", ("on_data", "flush_ack")),
    ("cache.key", "repro.cache.store", "ResultCache", ("key_for", "fingerprint_for")),
    ("cache.load", "repro.cache.store", "ResultCache", ("load",)),
    ("cache.store", "repro.cache.store", "ResultCache", ("store",)),
    ("obs.report", "repro.obs.registry", "MetricsRegistry", ("report",)),
]

# (span name, module, functions): module-level names, patched where
# the pipeline looks them up.
FUNCTION_SPANS = [
    ("parallel.run_points", "repro.experiments.figures", ("run_points",)),
    ("analysis.locality", "repro.experiments.figures", ("summarize_locality",)),
    (
        "apps.run",
        "repro.experiments.points",
        (
            "run_iperf",
            "run_bidirectional_iperf",
            "run_netperf_rpc",
            "run_redis",
            "run_nginx",
            "run_spdk",
        ),
    ),
    ("obs.render", "repro.obs.expect.reproduce", ("report_doc", "render_report_md")),
]

# Spans also written to the Chrome trace (few calls each).
COARSE = (
    "figure",
    "experiments.cell",
    "host.setup",
    "sim.run",
    "obs.evaluate",
    "cache.load",
    "cache.store",
)
CELL = "experiments.cell"


def install(epoch: float) -> tuple[SpanRecorder, dict]:
    """Wrap every layer boundary; returns the recorder and the counts.

    ``counts`` fills with the ``MetricsRegistry`` finals of each figure
    (summed over its phases) as the reproduce driver evaluates them.
    Traced runs are serial, so every span is recorded in this process.
    """
    recorder = SpanRecorder(
        coarse=COARSE, keep=(CELL,), checked=(CELL,), within="host.setup",
        epoch=epoch,
    )
    counts: dict[str, float] = {}
    for name, module_name, class_name, methods in CLASS_SPANS:
        base = getattr(importlib.import_module(module_name), class_name)
        for cls in _with_subclasses(base):
            for method in methods:
                if method in cls.__dict__:
                    recorder.patch(cls, method, name)
    for name, module_name, functions in FUNCTION_SPANS:
        module = importlib.import_module(module_name)
        for function in functions:
            recorder.patch(module, function, name)

    points = importlib.import_module("repro.experiments.points")
    for key in list(points.POINT_RUNNERS):
        recorder.patch(points.POINT_RUNNERS, key, CELL)

    simulator = importlib.import_module("repro.sim.engine").Simulator
    run = simulator.run

    @functools.wraps(run)
    def counted_run(self, *args, **kwargs):
        before = self.executed_events
        try:
            return run(self, *args, **kwargs)
        finally:
            recorder.add("sim.events", self.executed_events - before)

    simulator.run = recorder.wrap("sim.run", counted_run)

    reproduce = importlib.import_module("repro.obs.expect.reproduce")
    default_runners = reproduce.default_runners
    evaluate = reproduce.evaluate_figure

    def traced_runners():
        return {
            key: recorder.wrap("figure", runner)
            for key, runner in default_runners().items()
        }

    @functools.wraps(evaluate)
    def counted_evaluate(spec, result, metrics=None, **kwargs):
        for phase in (metrics or {}).get("phases", []):
            for metric, value in (phase.get("final") or {}).items():
                if isinstance(value, (int, float)):
                    key = _normalize(metric)
                    counts[key] = counts.get(key, 0) + value
        return evaluate(spec, result, metrics=metrics, **kwargs)

    reproduce.default_runners = traced_runners
    reproduce.evaluate_figure = recorder.wrap("obs.evaluate", counted_evaluate)
    return recorder, counts


def _with_subclasses(cls: type) -> list[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(c for c in _with_subclasses(sub) if c not in found)
    return found


def _normalize(name: str) -> str:
    """Drop the registry's ``#N`` instance suffixes."""
    return ".".join(part.split("#", 1)[0] for part in name.split("."))


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
def layer_metrics(
    spans: dict,
    counts: dict,
    cold_cache: dict,
    warm_cache: dict,
    walls: dict,
    micro: dict,
) -> dict[str, float]:
    """Every per-layer metric of one traced run.

    ``spans``: merged recorder state of the traced cold and warm runs.
    ``counts``: registry finals of the traced cold run.  ``*_cache``:
    ``provenance.cache`` of the traced cold and warm reports.
    ``walls``: untraced cold wall at 1 and 2 jobs (``jobs1``/``jobs2``)
    and the traced cold wall (``traced``, at 1 job).  ``micro``:
    :mod:`micro` results.
    """
    stats = spans["stats"]

    def count(name: str) -> int:
        return stats.get(name, [0, 0.0, 0.0])[0]

    def total(name: str) -> float:
        return stats.get(name, [0, 0.0, 0.0])[1]

    def own(name: str) -> float:
        return stats.get(name, [0, 0.0, 0.0])[2]

    def reg(*names: str) -> float:
        return sum(counts.get(name, 0) for name in names)

    def reg_suffix(prefix: str, suffix: str) -> float:
        return sum(
            value
            for name, value in counts.items()
            if name.startswith(prefix) and name.endswith(suffix)
        )

    translations = reg("iommu.translations")
    allocs = reg("iova.rcache.allocs")
    iova_layer = spans["layers"].get("iova", [0.0, 0.0])
    cells = spans["kept"].get(CELL, [])
    events = spans["counters"].get("sim.events", 0)
    speedup = walls["jobs1"] / walls["jobs2"]
    metrics = {
        "sim.events": events,
        "sim.events_per_s": events / walls["jobs1"],
        "sim.self_s": own("sim.run"),
        "host.setups": count("host.setup"),
        "host.setup_s": total("host.setup"),
        "host.rx_packets": count("host.rx"),
        "host.rx_s": total("host.rx"),
        "host.tx_s": total("host.tx"),
        "protection.map_s": total("protection.map"),
        "protection.unmap_s": total("protection.unmap"),
        "protection.translate_s": total("protection.translate"),
        "iommu.translations": translations,
        "iommu.translate_s": total("iommu.translate"),
        "iommu.iotlb_hit_ratio": _ratio(reg("iommu.iotlb_hits"), translations),
        "iommu.replayed_fraction": 1.0
        - _ratio(count("iommu.translate"), translations),
        "iommu.walks": reg("iommu.walks"),
        "iommu.walk_s": total("iommu.walk"),
        "iommu.ptcache_probe_s": total("iommu.ptcache_probe"),
        "iommu.ptcache_l1_misses": reg("iommu.ptcache_m1"),
        "iommu.ptcache_l2_misses": reg("iommu.ptcache_m2"),
        "iommu.ptcache_l3_misses": reg("iommu.ptcache_m3"),
        "iommu.map_s": total("iommu.map"),
        "iommu.unmap_s": total("iommu.unmap"),
        "iommu.invalidate_s": total("iommu.invalidate"),
        "iommu.invalidations": reg("iommu.invalidation_requests"),
        "iova.allocs": allocs,
        "iova.frees": reg("iova.rcache.frees"),
        "iova.rcache_hit_ratio": _ratio(reg("iova.rcache.cache_hits"), allocs),
        "iova.rcache_s": total("iova.rcache"),
        "iova.rbtree_s": total("iova.rbtree"),
        "iova.chunk_s": total("iova.chunk"),
        "iova.setup_share": _ratio(iova_layer[1], iova_layer[0]),
        "nic.offer_s": total("nic.offer"),
        "nic.ring_s": total("nic.ring"),
        "nic.dma_packets": reg("nic.dma_packets"),
        "nic.drops": reg("nic.buffer_drops", "nic.ring_drops"),
        "pcie.submit_s": total("pcie.submit"),
        "pcie.dmas": reg("pcie.rx.dmas", "pcie.tx.dmas"),
        "net.switch_s": total("net.switch"),
        "net.dctcp_s": total("net.dctcp"),
        "net.segments_sent": reg_suffix("dctcp.", ".segments_sent"),
        "net.timeouts": reg_suffix("dctcp.", ".timeouts"),
        "net.switch_drops": reg_suffix("switch.", ".drops"),
        "apps.self_s": own("apps.run"),
        # The figure's own work outside its sweep: row assembly, which
        # for iperf figures is mostly the reuse-distance analysis.
        "analysis.assemble_s": own("figure") + total("analysis.locality"),
        "analysis.locality_calls": count("analysis.locality"),
        "experiments.cells": len(cells),
        "experiments.cell_s_p50": statistics.median(cells) if cells else 0.0,
        "experiments.cell_s_max": max(cells, default=0.0),
        "parallel.run_points_s": total("parallel.run_points"),
        "parallel.jobs1_wall_s": walls["jobs1"],
        "parallel.jobs2_wall_s": walls["jobs2"],
        "parallel.speedup": speedup,
        "parallel.efficiency": speedup / 2,
        "cache.cells_computed": cold_cache.get("cells_computed", 0),
        "cache.cells_cached": warm_cache.get("cells_cached", 0),
        "cache.bytes_written": cold_cache.get("bytes_written", 0),
        "cache.bytes_read": warm_cache.get("bytes_read", 0),
        "cache.load_s": total("cache.load"),
        "cache.store_s": total("cache.store"),
        "cache.key_s": total("cache.key"),
        "obs.report_s": total("obs.report"),
        "obs.evaluate_s": total("obs.evaluate"),
        "obs.render_s": total("obs.render"),
        "trace.overhead": walls["traced"] / walls["jobs1"] - 1.0,
    }
    metrics.update(micro)
    return metrics


def self_by_layer(spans: dict) -> dict[str, float]:
    """Self time summed per layer, largest first."""
    totals: dict[str, float] = {}
    for name, (_count, _total, own) in spans["stats"].items():
        layer = name.split(".", 1)[0]
        totals[layer] = totals.get(layer, 0.0) + own
    return dict(sorted(totals.items(), key=lambda item: -item[1]))


def span_accounting_error(spans: dict) -> float:
    """Largest |sum of self times inside a cell - cell duration| / duration."""
    worst = 0.0
    for duration, inside in spans["checks"]:
        if duration > 0:
            worst = max(worst, abs(inside - duration) / duration)
    return worst


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0
