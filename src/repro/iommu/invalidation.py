"""The IOMMU invalidation queue interface.

VT-d exposes invalidations to the driver through a memory-resident
*invalidation queue*: the driver enqueues descriptors and (in strict
mode) spins until the hardware completes them.  Two properties of this
interface carry the paper's design:

1. A single queue entry can invalidate an **address range**, not just
   one page — F&S exploits this to invalidate a whole descriptor's
   worth of contiguous IOVA with one entry (Fig 6b), amortizing the
   per-entry CPU wait.

2. The descriptor has an option to invalidate **only the IOTLB entry
   while preserving the page-structure (PTcache) entries** — F&S's
   mechanism for preserving PTcaches across unmaps (§3).

The CPU cost model: each queue entry costs the submitting core a fixed
submit-plus-wait time (hundreds of ns in practice [Peleg et al. 2015]).
Batched invalidation therefore reduces per-descriptor CPU cost 64x.

Failure model (:mod:`repro.faults`): queued completions can be lost,
delayed, or spuriously partial, so :meth:`invalidate_range` returns a
``(cost_ns, completed_length)`` pair — cache effects are applied only
over the *completed prefix* of the requested range, and the descriptor
is confirmed exactly when ``completed_length == length``.  Deciding
what an unconfirmed descriptor means (retry, back off, fall back) is
the driver's job (``ProtectionDriver._invalidate_robust``).  The
register-based global flush (:meth:`flush_all`) polls a status register
instead of waiting on a completion descriptor; it can be slowed but
never lost, which makes it the drivers' sound last-resort fallback.
"""

from __future__ import annotations

from ..context import current_context
from ..verify.events import (
    FlushEvent,
    InvalidationEvent,
    PtCacheInvalidationEvent,
)
from .iotlb import Iotlb
from .ptcache import PtCacheHierarchy
from .stats import IommuStats

__all__ = ["InvalidationQueue", "CPU_COST_NS"]

# Per-descriptor submit-and-wait cost charged to the requesting core.
CPU_COST_NS = 250.0


class InvalidationQueue:
    """Models the VT-d queued-invalidation interface.

    Each descriptor costs the requesting core :data:`CPU_COST_NS`;
    callers accumulate the returned costs into their CPU budget.
    """

    def __init__(
        self, iotlb: Iotlb, ptcaches: PtCacheHierarchy, stats: IommuStats
    ) -> None:
        self.iotlb = iotlb
        self.ptcaches = ptcaches
        self.stats = stats
        self.total_cpu_ns = 0.0
        # Safety-invariant monitor (repro.verify); None in normal runs.
        self.monitor = current_context().monitor
        # Fault injector (repro.faults); None in normal runs.
        self.faults = current_context().injector("invalidation")
        # Completion-fault accounting.
        self.dropped_completions = 0
        self.partial_completions = 0
        self.delayed_completions = 0
        self.rearms = 0
        self.obs = current_context().registry
        if self.obs is not None:
            scope = self.obs.scope("invq")
            scope.counter("dropped", lambda: self.dropped_completions)
            scope.counter("partial", lambda: self.partial_completions)
            scope.counter("delayed", lambda: self.delayed_completions)
            scope.counter("rearms", lambda: self.rearms)
            scope.counter("cpu_ns", lambda: self.total_cpu_ns)

    # ------------------------------------------------------------------
    # Queued descriptors
    # ------------------------------------------------------------------
    def invalidate_range(
        self,
        iova: int,
        length: int,
        preserve_ptcache: bool,
        ptcache_only: bool = False,
    ) -> tuple[float, int]:
        """Submit one descriptor and wait for its completion report.

        ``preserve_ptcache=False`` is the Linux behaviour (drop IOTLB
        *and* every PTcache entry covering the range); ``True`` is the
        F&S behaviour (IOTLB only).  ``ptcache_only=True`` submits a
        PTcache-entry invalidation instead (F&S's reclaim fallback,
        used when an unmap reclaimed a page-table page).

        Returns ``(cost_ns, completed_length)``.  Cache effects are
        applied only over the completed prefix; the descriptor is
        confirmed exactly when ``completed_length == length``.
        """
        if length <= 0:
            # VT-d descriptors always cover at least one page; a
            # zero-length submission is an upstream no-op, not a wait.
            return 0.0, 0
        status = "completed"
        extra_ns = 0.0
        completed_length = length
        if self.faults is not None:
            status, extra_ns, completed_length = self.faults.outcome(
                iova, length, CPU_COST_NS
            )
            if status == "dropped":
                self.dropped_completions += 1
            elif status == "partial":
                self.partial_completions += 1
            elif extra_ns > 0.0:
                self.delayed_completions += 1
        # Cache effects apply over the completed prefix only.
        if ptcache_only:
            if completed_length > 0:
                self.ptcaches.invalidate_range(iova, completed_length)
                if self.monitor is not None:
                    self.monitor.record(
                        PtCacheInvalidationEvent(iova, completed_length),
                        owner=id(self.iotlb),
                    )
            self.stats.ptcache_invalidation_requests += 1
        else:
            if completed_length > 0:
                self.iotlb.invalidate_range(iova, completed_length)
                if not preserve_ptcache:
                    self.ptcaches.invalidate_range(iova, completed_length)
                    self.stats.ptcache_invalidation_requests += 1
                if self.monitor is not None:
                    self.monitor.record(
                        InvalidationEvent(
                            iova, completed_length, preserve_ptcache
                        ),
                        owner=id(self.iotlb),
                    )
            self.stats.invalidation_requests += 1
        cost = CPU_COST_NS + extra_ns
        self.total_cpu_ns += cost
        if self.obs is not None and self.obs.tracer is not None:
            # The queue has no clock of its own: the span starts "now"
            # on the tracer's bound simulated clock and lasts the
            # submit-and-wait CPU cost.
            self.obs.tracer.complete(
                "invalidation",
                "invq",
                self.obs.tracer.now(),
                cost,
                iova=hex(iova),
                length=length,
                status=status,
            )
        return cost, completed_length

    # ------------------------------------------------------------------
    # Register-based global flush
    # ------------------------------------------------------------------
    def flush_all(self) -> float:
        """Global IOTLB + PTcache flush via the status-register path.

        Always completes (delay faults only inflate the wait); this is
        the graceful-degradation fallback when queued completions
        cannot be confirmed, and deferred mode's periodic flush.
        Returns the CPU cost.
        """
        extra_ns = 0.0
        if self.faults is not None:
            extra_ns = self.faults.flush_extra(CPU_COST_NS)
            if extra_ns > 0.0:
                self.delayed_completions += 1
        self.iotlb.flush()
        self.ptcaches.flush()
        self.stats.invalidation_requests += 1
        self.stats.ptcache_invalidation_requests += 1
        if self.monitor is not None:
            self.monitor.record(FlushEvent(), owner=id(self.iotlb))
        cost = CPU_COST_NS + extra_ns
        self.total_cpu_ns += cost
        if self.obs is not None and self.obs.tracer is not None:
            self.obs.tracer.complete(
                "flush", "invq", self.obs.tracer.now(), cost
            )
        return cost

    # ------------------------------------------------------------------
    # Queue teardown + re-init (hard-fault recovery)
    # ------------------------------------------------------------------
    def rearm(self) -> float:
        """Tear the queue down and re-initialize it after a wedge.

        VT-d recovery sequence: clear the QIE bit, reset head/tail,
        re-enable.  This is the only operation that clears a latched
        ``wedge-invq`` fault — completions start flowing again
        afterwards.  Returns the CPU cost of the register dance
        (modeled as one submit-and-wait quantum).
        """
        self.rearms += 1
        if self.faults is not None:
            self.faults.notify_reset()
        cost = CPU_COST_NS
        self.total_cpu_ns += cost
        if self.obs is not None and self.obs.tracer is not None:
            self.obs.tracer.complete(
                "rearm", "invq", self.obs.tracer.now(), cost
            )
        return cost
