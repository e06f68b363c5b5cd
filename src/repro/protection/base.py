"""Protection-driver interface.

A protection driver is the OS-side policy layer between the NIC driver
and the IOMMU: it decides how IOVAs are allocated, how pages are mapped
and unmapped, and what gets invalidated when.  The four safety modes of
the paper are four drivers behind one interface:

* :class:`~repro.protection.passthrough.PassthroughDriver` — IOMMU off;
* :class:`~repro.protection.strict.StrictFamilyDriver` — Linux strict
  mode, with F&S's three ideas as independent flags (giving Linux
  strict, F&S, and the Fig 12 ablation points Linux+A / Linux+B);
* :class:`~repro.protection.deferred.DeferredDriver` — Linux deferred
  mode (weaker safety, shown by the safety tests to admit stale
  accesses).

All mutating methods return the **CPU cost in ns** they impose on the
calling core (allocator ops, map/unmap, invalidation-queue waits); the
host model charges this to the core's budget, which is how per-core
throughput effects (Fig 8a's CPU-bound gap, batched invalidation's CPU
saving) appear.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional

from ..context import current_context
from ..nic.descriptor import RxDescriptor
from ..verify.events import BufferRegisteredEvent, BufferRetiredEvent

if TYPE_CHECKING:  # pragma: no cover
    from ..iommu import Iommu

__all__ = ["ProtectionDriver", "TxMapping"]


@dataclass(frozen=True, slots=True)
class TxMapping:
    """One mapped Tx page (a socket buffer handed to the NIC)."""

    iova: int
    frame: int
    cookie: Any = None  # driver-private (e.g. the F&S chunk)


class ProtectionDriver(ABC):
    """OS policy for IO memory protection (one instance per host)."""

    #: short mode name used in experiment tables
    name: str = "base"
    #: whether the mode upholds the strict safety property
    strict_safety: bool = False
    #: retry budget before an invalidation wait degrades to a global
    #: flush; the exponential backoff base is the spin-wait between
    #: retries.  Both are CPU cost, charged to the retiring core.
    max_invalidation_retries: int = 3
    invalidation_backoff_ns: float = 400.0
    #: the IOMMU the driver maps through (every mode but IOMMU-off)
    iommu: "Iommu"

    def __init__(self) -> None:
        # Safety-invariant monitor (repro.verify); None in normal runs.
        # Subclasses must call ``super().__init__()`` so the monitor can
        # track which DMA buffers are live (invariant (d)).
        self.monitor = current_context().monitor
        # Hardening accounting (repro.faults): retried invalidation
        # waits and last-resort global flushes.
        self.invalidation_retries = 0
        self.degraded_flushes = 0
        self.obs = current_context().registry
        if self.obs is not None:
            scope = self.obs.scope("driver")
            scope.counter(
                "invalidation_retries", lambda: self.invalidation_retries
            )
            scope.counter(
                "degraded_flushes", lambda: self.degraded_flushes
            )

    # ------------------------------------------------------------------
    # Hardened invalidation (timeout-retry-backoff + degradation)
    # ------------------------------------------------------------------
    def _invalidate_robust(
        self,
        iova: int,
        length: int,
        preserve_ptcache: bool,
        ptcache_only: bool = False,
    ) -> float:
        """Invalidate a range and *confirm* it, whatever the fabric does.

        The one place that decides what an unconfirmed invalidation
        means.  A descriptor is confirmed when the queue reports its
        whole length completed; on a dropped or partial completion,
        retries the unconfirmed suffix with exponential backoff.  When
        the retry budget is exhausted, the preservation optimisation is
        abandoned and a register-based global flush (full IOTLB +
        PTcache invalidation) closes the window — graceful degradation:
        throughput is lost, safety is not.  Returns the total CPU cost
        in ns.
        """
        queue = self.iommu.invalidation_queue
        cost = 0.0
        remaining_iova = iova
        remaining = length
        for attempt in range(self.max_invalidation_retries + 1):
            wait_ns, completed = queue.invalidate_range(
                remaining_iova, remaining, preserve_ptcache, ptcache_only
            )
            cost += wait_ns
            if completed == remaining:
                return cost
            # Advance over the confirmed prefix and spin before the
            # retry (exponential backoff, charged as CPU time).
            remaining_iova += completed
            remaining -= completed
            self.invalidation_retries += 1
            cost += self.invalidation_backoff_ns * (2 ** attempt)
            if self.obs is not None and self.obs.tracer is not None:
                self.obs.tracer.instant(
                    "invalidation.retry",
                    "driver",
                    iova=hex(remaining_iova),
                    attempt=attempt + 1,
                )
        self.degraded_flushes += 1
        cost += queue.flush_all()
        if self.obs is not None and self.obs.tracer is not None:
            self.obs.tracer.instant(
                "invalidation.degraded_flush", "driver", iova=hex(iova)
            )
        return cost

    # ------------------------------------------------------------------
    # Monitor notifications (no-ops when unmonitored)
    # ------------------------------------------------------------------
    def _monitor_owner(self) -> int:
        # Buffer events must share a scope with the TranslateEvents they
        # bound (invariant (d)), which the IOMMU emits under the id of
        # its IOTLB.  Drivers without an IOMMU scope to themselves.
        iommu = getattr(self, "iommu", None)
        return id(iommu.iotlb) if iommu is not None else id(self)

    def _notify_rx_mapped(self, descriptor: RxDescriptor) -> None:
        if self.monitor is not None:
            self.monitor.record(
                BufferRegisteredEvent(
                    "rx",
                    tuple(slot.iova for slot in descriptor.slots),
                    handle=descriptor.descriptor_id,
                ),
                owner=self._monitor_owner(),
            )

    def _notify_rx_retired(self, descriptor: RxDescriptor) -> None:
        if self.monitor is not None:
            self.monitor.record(
                BufferRetiredEvent(
                    "rx",
                    tuple(slot.iova for slot in descriptor.slots),
                    handle=descriptor.descriptor_id,
                ),
                owner=self._monitor_owner(),
            )

    def _notify_tx_mapped(self, mapping: "TxMapping") -> None:
        if self.monitor is not None:
            self.monitor.record(
                BufferRegisteredEvent("tx", (mapping.iova,)),
                owner=self._monitor_owner(),
            )

    def _notify_tx_retired(self, mappings: list["TxMapping"]) -> None:
        if self.monitor is not None:
            self.monitor.record(
                BufferRetiredEvent(
                    "tx", tuple(mapping.iova for mapping in mappings)
                ),
                owner=self._monitor_owner(),
            )

    @abstractmethod
    def make_rx_descriptor(
        self, core: int, pages: int
    ) -> tuple[RxDescriptor, float]:
        """Build and map a fresh Rx descriptor; returns (desc, cpu_ns)."""

    @abstractmethod
    def retire_rx_descriptor(self, descriptor: RxDescriptor, core: int) -> float:
        """Unmap/invalidate/free a consumed descriptor; returns cpu_ns."""

    @abstractmethod
    def map_tx_page(self, core: int) -> tuple[TxMapping, float]:
        """Map one Tx socket-buffer page; returns (mapping, cpu_ns)."""

    @abstractmethod
    def retire_tx_pages(self, mappings: list[TxMapping], core: int) -> float:
        """Unmap/invalidate/free completed Tx pages; returns cpu_ns."""

    def translate_for_dma(
        self, iova: int, source: str, count: int = 1, stride: int = 0
    ) -> Optional[int]:
        """Translate one page's ``count`` PCIe transactions (TLPs),
        ``stride`` bytes apart (the link's max payload).

        Returns the page-walk memory reads, or ``None`` when the
        hard-fault path aborted a TLP (IOMMU fault queue attached);
        see :meth:`~repro.iommu.Iommu.translate_page`.
        """
        return self.iommu.translate_page(iova, source, count, stride)

    # ------------------------------------------------------------------
    # Hard-fault recovery
    # ------------------------------------------------------------------
    def reset_recover(self, descriptors: list[RxDescriptor]) -> float:
        """Unwedge the invalidation path and retire torn-down buffers.

        The device-reset protocol's driver half, run while the NIC is
        quiesced: first re-arm the invalidation queue (teardown +
        re-init clears a wedged queue — nothing below can confirm an
        invalidation until this happens), then unmap every outstanding
        descriptor through the hardened retire path, and finish with a
        global flush as the re-arm barrier so no stale translation
        survives into the rebuilt rings.  Returns the total CPU cost.

        Mapping fresh descriptors is deliberately *not* done here — the
        host rebuilds rings afterwards — so recovery can never race its
        own cleanup (and analyzer rule REPRO105 holds by construction).
        """
        iommu = getattr(self, "iommu", None)
        queue = iommu.invalidation_queue if iommu is not None else None
        cost = 0.0
        dropped_before = 0
        if queue is not None:
            cost += queue.rearm()
            dropped_before = queue.dropped_completions
        for descriptor in descriptors:
            cost += self.retire_rx_descriptor(
                descriptor, descriptor.core
            )
        if queue is not None:
            if queue.dropped_completions > dropped_before:
                # The queue dropped completions *during* the retire
                # phase — it wedged after the re-arm above (a fault
                # window can open mid-recovery).  Re-arm again before
                # resuming: the closing flush keeps safety either way,
                # but a queue left wedged here would go undetected if
                # the post-reset RTO stall outlives the run.
                cost += queue.rearm()
            cost += queue.flush_all()
        return cost

    def device_can_access(self, iova: int) -> bool:
        """Whether the device could still reach ``iova`` right now.

        Used by the safety property tests: for strict modes this must
        be ``False`` immediately after the retire call returns.
        """
        return False
