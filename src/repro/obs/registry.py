"""The central metrics registry: named counters/gauges for every subsystem.

Instrumented classes register their metrics once, at construction time,
through a :class:`MetricsScope` — each metric is a *name* plus a
zero-argument ``read`` callable closing over the instance's existing
counter attribute.  Registration is the only work instrumentation adds:
the hot paths keep bumping the plain integer attributes they always
bumped, and the registry reads them on demand (at sampler ticks and at
phase end).  With no registry on the run context (:mod:`repro.context`),
not even registration happens.

A *phase* is one experiment point (one testbed / one simulated clock):
``begin_phase`` closes the previous phase by capturing every metric's
final value and opens a fresh namespace, so multi-point figure sweeps
produce one labelled column group per point instead of a name collision.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.engine import Simulator
    from .tracer import SpanTracer

__all__ = [
    "MetricsScope",
    "Phase",
    "MetricsRegistry",
]


class Phase:
    """One experiment point: a metric namespace plus its time series."""

    def __init__(self, index: int, label: str) -> None:
        self.index = index
        self.label = label
        # Metric name -> its read-current-value callable.
        self.metrics: dict[str, Callable[[], float]] = {}
        self.sample_times: list[float] = []
        self.series: dict[str, list[float]] = {}
        self.final: Optional[dict[str, float]] = None
        self.sim_attached = False
        # Set by the sampler when the time series hit max_samples while
        # the workload was still running (no-silent-caps rule): the
        # series is a truncated prefix, though finals stay complete.
        self.truncated = False
        self._scope_counts: dict[str, int] = {}

    def read_all(self) -> dict[str, float]:
        """Current value of every registered metric (frozen once final)."""
        if self.final is not None:
            return dict(self.final)
        return {name: read() for name, read in self.metrics.items()}

    def record_sample(self, t_ns: float) -> None:
        """Append one time-series point for every registered metric."""
        self.sample_times.append(t_ns)
        for name, value in self.read_all().items():
            self.series.setdefault(name, []).append(value)

    def finalize(self) -> None:
        """Capture final values (idempotent; later reads are frozen).

        The read callables close over the run's live components, so
        they are dropped here: a finished run's object graph must not
        stay reachable from the registry that outlives it.
        """
        if self.final is None:
            self.final = self.read_all()
            self.metrics = {}

    def to_dict(self) -> dict:
        self.finalize()
        ticks = len(self.sample_times)
        series = {
            # A metric registered after sampling started has a shorter
            # series; pad the front so columns align with sample_times.
            name: [None] * (ticks - len(values)) + values
            for name, values in self.series.items()
        }
        return {
            "index": self.index,
            "label": self.label,
            "final": self.final,
            "truncated": self.truncated,
            "samples": {"t_ns": self.sample_times, "series": series},
        }


class MetricsScope:
    """A per-instance namespace within one phase (e.g. ``pcie.rx``)."""

    __slots__ = ("_phase", "prefix")

    def __init__(self, phase: Phase, prefix: str) -> None:
        self._phase = phase
        self.prefix = prefix

    def counter(self, name: str, read: Callable[[], float]) -> None:
        """Register a monotonically increasing count."""
        self._add(name, read)

    def gauge(self, name: str, read: Callable[[], float]) -> None:
        """Register an instantaneous level (occupancy, utilization)."""
        self._add(name, read)

    def _add(self, name: str, read: Callable[[], float]) -> None:
        self._phase.metrics[f"{self.prefix}.{name}"] = read


class MetricsRegistry:
    """Owns phases, scopes, the sampler hookup and the optional tracer."""

    def __init__(
        self,
        tracer: Optional["SpanTracer"] = None,
        sample_interval_ns: Optional[float] = None,
    ) -> None:
        self.tracer = tracer
        self.sample_interval_ns = sample_interval_ns
        self.phases: list[Phase] = []

    # ------------------------------------------------------------------
    # Phases
    # ------------------------------------------------------------------
    def begin_phase(self, label: Optional[str] = None) -> Phase:
        """Close the current phase (freezing finals) and open a new one."""
        if self.phases:
            self.phases[-1].finalize()
        index = len(self.phases)
        phase = Phase(index, label or f"phase{index}")
        self.phases.append(phase)
        if self.tracer is not None:
            self.tracer.set_process(index, phase.label)
        return phase

    def current_phase(self) -> Phase:
        """The open phase; a finalized phase is never re-entered."""
        if not self.phases or self.phases[-1].final is not None:
            return self.begin_phase()
        return self.phases[-1]

    def adopt_phase(self, payload: dict) -> Phase:
        """Append a ``Phase.to_dict()`` payload recorded elsewhere.

        The index becomes this registry's next slot, so adopting in
        sweep order rebuilds a serial run's phase list.  The phase is
        frozen data: finals set, no live metrics, and attached, so a
        stray ``attach_simulator`` opens a new phase.  Its series are
        already padded, so ``to_dict()`` re-emits the payload as is.
        """
        if self.phases:
            self.phases[-1].finalize()
        phase = Phase(len(self.phases), payload["label"])
        phase.final = payload["final"]
        phase.truncated = payload["truncated"]
        samples = payload["samples"]
        phase.sample_times = list(samples["t_ns"])
        phase.series = {
            name: list(values) for name, values in samples["series"].items()
        }
        phase.sim_attached = True
        self.phases.append(phase)
        if self.tracer is not None:
            self.tracer.set_process(phase.index, phase.label)
        return phase

    # ------------------------------------------------------------------
    # Registration (called by instrumented constructors)
    # ------------------------------------------------------------------
    def scope(self, prefix: str) -> MetricsScope:
        """A unique metric namespace; repeats get ``#2``, ``#3``, ...."""
        phase = self.current_phase()
        count = phase._scope_counts.get(prefix, 0) + 1
        phase._scope_counts[prefix] = count
        full = prefix if count == 1 else f"{prefix}#{count}"
        return MetricsScope(phase, full)

    # ------------------------------------------------------------------
    # Simulator hookup (called by the testbed)
    # ------------------------------------------------------------------
    def attach_simulator(self, sim: "Simulator") -> Phase:
        """Bind the tracer clock and start this phase's periodic sampler.

        Each phase belongs to exactly one simulator; attaching a second
        simulator auto-opens a new phase, so sweeps that forget to call
        :meth:`begin_phase` per point still get separated series.
        """
        from .sampler import MetricsSampler

        phase = self.current_phase()
        if phase.sim_attached:
            phase = self.begin_phase()
        phase.sim_attached = True
        if self.tracer is not None:
            self.tracer.bind_clock(lambda: sim.now)
        if self.sample_interval_ns is not None:
            MetricsSampler(sim, phase, self.sample_interval_ns).start()
        return phase

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def report(self) -> dict:
        """The full metrics document (finalizes the current phase)."""
        if self.phases:
            self.phases[-1].finalize()
        return {
            "schema": "repro.obs/1",
            "phases": [phase.to_dict() for phase in self.phases],
        }

    def summary_rows(self) -> tuple[list[str], list[list]]:
        """A per-phase summary table over the headline counters."""
        headers = [
            "phase",
            "samples",
            "translations",
            "iotlb_miss",
            "mem_reads",
            "invalidations",
            "dma_bytes",
            "drops",
        ]
        rows = []
        for phase in self.phases:
            phase.finalize()
            final = phase.final or {}
            samples = len(phase.sample_times)
            rows.append(
                [
                    phase.label,
                    f"{samples} (truncated)" if phase.truncated else samples,
                    _sum_metric(final, "iommu.translations"),
                    _sum_metric(final, "iommu.iotlb_misses"),
                    _sum_metric(final, "iommu.memory_reads"),
                    _sum_metric(final, "iommu.invalidation_requests"),
                    _sum_metric(final, "pcie.rx.bytes", "pcie.tx.bytes"),
                    _sum_metric(final, "nic.buffer_drops", "nic.ring_drops"),
                ]
            )
        return headers, rows


def _normalize(name: str) -> str:
    """Strip the ``#N`` instance-dedup suffixes from a metric name."""
    return ".".join(part.split("#", 1)[0] for part in name.split("."))


def _sum_metric(final: dict[str, float], *targets: str) -> float:
    """Sum all instances of the targeted metrics (0 when absent)."""
    wanted = set(targets)
    total = 0.0
    for name, value in final.items():
        if _normalize(name) in wanted and isinstance(value, (int, float)):
            total += value
    return int(total) if float(total).is_integer() else total
