"""Registered point runners: one callable per sweep-cell shape.

Every figure sweep cell — "run iperf in this mode with this many
flows" — is expressed as a named entry in :data:`POINT_RUNNERS` so the
parallel executor can name it in a picklable
:class:`~repro.parallel.spec.PointSpec` and execute it in any process.
A runner takes ``(spec, scale)`` and returns the app's picklable result
object; row formatting stays in the figure assemblers
(:mod:`repro.experiments.figures`), which run in the parent either way.

The fault row is special: its invariant monitor and fault plan are
*part of the point* (each row gets a fresh monitor; the plan ships in
``spec.payload``), installed on the run context inside the runner, so
fault sweeps parallelize with nothing inherited from the caller.
"""

from __future__ import annotations

from typing import Callable, Dict

from ..apps.iperf import run_bidirectional_iperf, run_iperf
from ..apps.netperf import run_netperf_rpc
from ..apps.nginx import run_nginx
from ..apps.redis import run_redis
from ..apps.spdk import run_spdk
from ..context import using
from ..faults import FaultRuntime
from ..iommu import IommuConfig
from ..parallel.spec import PointSpec
from ..sim import EarlyQuiescenceError, WatchdogError
from ..verify import InvariantMonitor, InvariantViolation
from .settings import RunScale

__all__ = ["POINT_RUNNERS", "point_runner"]

POINT_RUNNERS: Dict[str, Callable[[PointSpec, RunScale], object]] = {}

# Fault rows watchdog their runs: an injected fault that deadlocks the
# workload must become a pending-event trace, not an infinite loop.
_FAULT_WATCHDOG_INTERVAL_NS = 2_000_000.0

# Chaos rows recover from hard faults by resetting the device, which
# drops every in-flight segment and stalls the DCTCP senders until
# their RTOs fire (~4 ms).  The watchdog must outlast that legitimate
# quiet period or it would misreport a successful recovery as a hang.
_CHAOS_WATCHDOG_INTERVAL_NS = 10_000_000.0


def point_runner(name: str):
    """Register a point runner under ``name`` (its PointSpec key)."""

    def register(fn):
        POINT_RUNNERS[name] = fn
        return fn

    return register


@point_runner("iperf_flows")
def _iperf_flows(spec: PointSpec, scale: RunScale):
    return run_iperf(
        spec.mode,
        flows=spec.x,
        warmup_ns=scale.warmup_ns,
        measure_ns=scale.measure_ns,
    )


def _five_flows(spec: PointSpec, scale: RunScale, **overrides):
    """A 5-flow iperf cell with one host or IOMMU knob set from ``spec.x``."""
    return run_iperf(
        spec.mode,
        flows=5,
        warmup_ns=scale.warmup_ns,
        measure_ns=scale.measure_ns,
        **overrides,
    )


@point_runner("iperf_ring")
def _iperf_ring(spec: PointSpec, scale: RunScale):
    return _five_flows(spec, scale, ring_size_packets=spec.x)


@point_runner("iperf_l3_entries")
def _iperf_l3_entries(spec: PointSpec, scale: RunScale):
    return _five_flows(
        spec, scale, iommu=IommuConfig(ptcache_l3_entries=spec.x)
    )


@point_runner("iperf_aging")
def _iperf_aging(spec: PointSpec, scale: RunScale):
    return _five_flows(spec, scale, allocator_aging_iovas=spec.x)


@point_runner("iperf_walkers")
def _iperf_walkers(spec: PointSpec, scale: RunScale):
    return _five_flows(spec, scale, iommu=IommuConfig(walkers=spec.x))


@point_runner("iperf_ddio")
def _iperf_ddio(spec: PointSpec, scale: RunScale):
    return _five_flows(spec, scale, enable_ddio=spec.x == "on")


@point_runner("iperf_descriptor_pages")
def _iperf_descriptor_pages(spec: PointSpec, scale: RunScale):
    return _five_flows(spec, scale, descriptor_pages=spec.x)


@point_runner("netperf_rpc")
def _netperf_rpc(spec: PointSpec, scale: RunScale):
    return run_netperf_rpc(
        spec.mode,
        spec.x,
        warmup_ns=scale.warmup_ns,
        measure_ns=scale.latency_measure_ns,
    )


@point_runner("bidir_iperf")
def _bidir_iperf(spec: PointSpec, scale: RunScale):
    return run_bidirectional_iperf(
        spec.mode,
        spec.x,
        spec.x,
        warmup_ns=scale.warmup_ns,
        measure_ns=scale.measure_ns,
    )


@point_runner("redis")
def _redis(spec: PointSpec, scale: RunScale):
    return run_redis(
        spec.mode,
        spec.x,
        warmup_ns=scale.warmup_ns,
        measure_ns=scale.measure_ns,
    )


@point_runner("nginx")
def _nginx(spec: PointSpec, scale: RunScale):
    return run_nginx(
        spec.mode,
        spec.x,
        warmup_ns=scale.warmup_ns,
        measure_ns=scale.measure_ns,
    )


@point_runner("spdk")
def _spdk(spec: PointSpec, scale: RunScale):
    return run_spdk(
        spec.mode,
        spec.x,
        warmup_ns=scale.warmup_ns,
        measure_ns=scale.measure_ns,
    )


@point_runner("fault_row")
def _fault_row(spec: PointSpec, scale: RunScale):
    """One fault-sweep row: iperf under a fresh monitor (+ plan).

    ``spec.payload`` is ``(plan_or_None, flows)``; the baseline row
    ships ``plan=None``.  The monitor and fault runtime are scoped to
    this call, so the row behaves identically inline and in a worker.
    A violation propagates (the sweep's safety bar).
    """
    plan, flows = spec.payload
    monitor = InvariantMonitor()
    runtime = FaultRuntime(plan) if plan is not None else None
    with using(monitor=monitor, faults=runtime):
        point = run_iperf(
            spec.mode,
            flows=flows,
            warmup_ns=scale.warmup_ns,
            measure_ns=scale.measure_ns,
            strict_until=True,
            watchdog_interval_ns=_FAULT_WATCHDOG_INTERVAL_NS,
        )
    return {
        "point": point,
        "injected": runtime.injected_faults if runtime is not None else 0,
        "violations": len(monitor.violations),
        "timeline": runtime.timeline_text() if runtime is not None else None,
    }


@point_runner("chaos_row")
def _chaos_row(spec: PointSpec, scale: RunScale):
    """One chaos-search schedule: iperf + recovery under random faults.

    ``spec.payload`` is ``(plan, flows, recovery)``.  Unlike the fault
    sweep, nothing propagates: a violation, watchdog trip or dead
    workload is the row's *finding* (the chaos bar judges the returned
    dict), so the row always comes back picklable — with the fault
    timeline, which must be byte-identical across worker counts.
    """
    plan, flows, recovery = spec.payload
    monitor = InvariantMonitor()
    runtime = FaultRuntime(plan)
    outcome = "ok"
    point = None
    with using(monitor=monitor, faults=runtime):
        try:
            point = run_iperf(
                spec.mode,
                flows=flows,
                warmup_ns=scale.warmup_ns,
                measure_ns=scale.measure_ns,
                strict_until=True,
                watchdog_interval_ns=_CHAOS_WATCHDOG_INTERVAL_NS,
                recovery=recovery,
                iommu=IommuConfig(fault_queue=True),
            )
        except WatchdogError:
            outcome = "watchdog"
        except EarlyQuiescenceError:
            outcome = "quiesced"
        except InvariantViolation:
            outcome = "violation"
    extras = point.extras if point is not None else {}
    return {
        "outcome": outcome,
        "goodput_gbps": (
            point.rx_goodput_gbps if point is not None else 0.0
        ),
        "injected": runtime.injected_faults,
        "violations": len(monitor.violations),
        "timeline": runtime.timeline_text(),
        "unrecovered_wedges": runtime.unrecovered_wedges(),
        "recoveries": extras.get("recoveries", 0),
        "mttr_max_ns": extras.get("mttr_max_ns", 0.0),
        "rx_dma_aborts": extras.get("rx_dma_aborts", 0),
        "faults_reported": extras.get("faults_reported", 0),
    }
