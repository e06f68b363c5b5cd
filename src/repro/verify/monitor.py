"""The runtime invariant checker.

:class:`InvariantMonitor` consumes the event stream emitted by the
instrumented simulator components (see :mod:`repro.verify.events`) and
checks, per event, the safety invariants the paper's argument rests on:

(a) **use-after-unmap** — no translation succeeds for an IOVA after the
    IOTLB invalidation for its unmap completed.  This is the strict
    safety property: once the unmap's invalidation is done, the device
    must fault on any access until the page is mapped again.

(b) **stale-ptcache** — a preserved PTcache entry is never consulted
    after the page-table page it caches was reclaimed.  F&S preserves
    PTcache entries across unmaps precisely because descriptor-sized
    unmaps never reclaim page-table pages; when one *is* reclaimed the
    driver must drop the covering entries (the correctness fallback) or
    a later walk would follow a dangling page pointer.

(c) **iova-overlap / iova-bad-free** — the IOVA allocator never hands
    out overlapping page ranges and never accepts a free for a range it
    did not allocate (double frees included; the Linux rcache silently
    swallows those, which is exactly why the monitor checks them).

(d) **dma-out-of-bounds** — every translated device access lands inside
    a buffer the protection driver currently has registered (an Rx
    descriptor's page slots or a live Tx socket-buffer page).

Violations raise :class:`~repro.verify.violation.InvariantViolation`
carrying the recent event trace; pass ``raise_on_violation=False`` to
collect violations instead (``monitor.violations``).

The monitor is attached through the run context only: construct
instrumented objects inside ``with using(monitor=InvariantMonitor()):
...`` (:mod:`repro.context`).  Each component reads the context once,
at construction, so an object built outside the block is never
watched; the IOMMU also takes its ``per_call`` choice from that read.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Set, Tuple

from .events import (
    BufferRegisteredEvent,
    BufferRetiredEvent,
    DmaFaultEvent,
    Event,
    FlushEvent,
    InvalidationEvent,
    IotlbEvictEvent,
    IovaAllocEvent,
    IovaFreeEvent,
    MapEvent,
    PtCacheHitEvent,
    PtCacheInvalidationEvent,
    PtPageReclaimedEvent,
    TranslateEvent,
    UnmapEvent,
)
from .violation import InvariantViolation

__all__ = ["InvariantMonitor"]

PAGE_SHIFT = 12


def _pages_of(iova: int, length: int) -> range:
    first = iova >> PAGE_SHIFT
    last = (iova + max(length, 1) - 1) >> PAGE_SHIFT
    return range(first, last + 1)


class _AllocatorBook:
    """Outstanding-range bookkeeping for one allocator layer."""

    __slots__ = ("ranges", "pages")

    def __init__(self) -> None:
        self.ranges: Dict[int, int] = {}  # base pfn -> pages
        self.pages: Set[int] = set()


class InvariantMonitor:
    """Checks DMA-safety invariants over the simulator's event stream."""

    def __init__(
        self,
        trace_limit: int = 512,
        raise_on_violation: bool = True,
        check_dma_bounds: bool = True,
    ) -> None:
        self.trace_limit = trace_limit
        self.raise_on_violation = raise_on_violation
        self.check_dma_bounds = check_dma_bounds
        self._trace: Deque[Event] = deque(maxlen=trace_limit)
        self._seq = 0
        # All mutable invariant state is scoped by the event's ``owner``
        # (the emitting IOMMU/allocator instance): experiments routinely
        # run several hosts — several independent IOVA spaces — against
        # one monitor, and the same IOVA value is unrelated across them.
        # Invariant (a): unmapped pages by invalidation progress.
        self._pending_invalidation: Dict[int, Set[int]] = {}
        self._dead_pages: Dict[int, Set[int]] = {}
        # Invariant (b): identity of reclaimed page-table pages.  Strong
        # references are kept deliberately so ``id()`` values are never
        # recycled; reclaims are rare (only >= 2 MB unmaps cause them).
        # Object identity is already globally unique — no owner scoping.
        self._reclaimed_ids: Set[int] = set()
        self._reclaimed_refs: List[Any] = []
        # Invariant (c): allocator books, one per (layer, instance).
        self._books: Dict[Tuple[str, int], _AllocatorBook] = {}
        # Invariant (d): pages of currently registered DMA buffers.
        self._live_pages: Dict[Tuple[int, str], Set[int]] = {}
        self._buffers_seen: Set[Tuple[int, str]] = set()
        # Outcomes.
        self.violations: List[InvariantViolation] = []
        self.events_recorded = 0
        self.translations_checked = 0
        self.stale_window_translations = 0
        self.faults_observed = 0
        self._handlers: Dict[type, Callable[[Any], None]] = {
            MapEvent: self._on_map,
            UnmapEvent: self._on_unmap,
            InvalidationEvent: self._on_invalidation,
            FlushEvent: self._on_flush,
            TranslateEvent: self._on_translate,
            DmaFaultEvent: self._on_fault,
            PtCacheHitEvent: self._on_ptcache_hit,
            PtPageReclaimedEvent: self._on_pt_reclaim,
            PtCacheInvalidationEvent: self._ignore,
            IotlbEvictEvent: self._ignore,
            IovaAllocEvent: self._on_iova_alloc,
            IovaFreeEvent: self._on_iova_free,
            BufferRegisteredEvent: self._on_buffer_registered,
            BufferRetiredEvent: self._on_buffer_retired,
        }

    # ------------------------------------------------------------------
    # Event intake
    # ------------------------------------------------------------------
    def record(self, event: Event, owner: int = 0) -> None:
        """Stamp, trace, and check one event (the emitters' entry point).

        ``owner`` is the emitting instance's scope token (emitters pass
        an ``id()``); 0 means "unscoped", fine for single-instance use.
        """
        event.seq = self._seq
        event.owner = owner
        self._seq += 1
        self.events_recorded += 1
        self._trace.append(event)
        handler = self._handlers.get(type(event))
        if handler is not None:
            handler(event)

    def trace(self) -> List[Event]:
        """The retained event history, oldest first."""
        return list(self._trace)

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        return (
            f"verify: {self.events_recorded} events, "
            f"{self.translations_checked} translations checked, "
            f"{self.faults_observed} faults blocked, "
            f"{len(self.violations)} violations"
        )

    # ------------------------------------------------------------------
    # Violation plumbing
    # ------------------------------------------------------------------
    def _violate(self, kind: str, message: str, event: Event) -> None:
        violation = InvariantViolation(kind, message, event, self.trace())
        self.violations.append(violation)
        if self.raise_on_violation:
            raise violation

    @staticmethod
    def _ignore(event: Event) -> None:
        return None

    # ------------------------------------------------------------------
    # Invariant (a): use-after-unmap
    # ------------------------------------------------------------------
    def _pending(self, owner: int) -> Set[int]:
        return self._pending_invalidation.setdefault(owner, set())

    def _dead(self, owner: int) -> Set[int]:
        return self._dead_pages.setdefault(owner, set())

    def _on_map(self, event: MapEvent) -> None:
        pending = self._pending(event.owner)
        dead = self._dead(event.owner)
        for page in _pages_of(event.iova, event.length):
            pending.discard(page)
            dead.discard(page)

    def _on_unmap(self, event: UnmapEvent) -> None:
        self._pending(event.owner).update(
            _pages_of(event.iova, event.length)
        )

    def _on_invalidation(self, event: InvalidationEvent) -> None:
        pending = self._pending(event.owner)
        dead = self._dead(event.owner)
        for page in _pages_of(event.iova, event.length):
            if page in pending:
                pending.discard(page)
                dead.add(page)

    def _on_flush(self, event: FlushEvent) -> None:
        pending = self._pending(event.owner)
        self._dead(event.owner).update(pending)
        pending.clear()

    def _on_translate(self, event: TranslateEvent) -> None:
        self.translations_checked += 1
        page = event.iova >> PAGE_SHIFT
        if page in self._dead(event.owner):
            self._violate(
                "use-after-unmap",
                f"translation succeeded for iova {event.iova:#x} "
                f"({event.source}) after its unmap's IOTLB invalidation "
                "completed — the device can still reach a retired page",
                event,
            )
            return
        if page in self._pending(event.owner) or event.stale:
            # Unmapped but the invalidation has not completed yet: the
            # deferral window deferred mode *permits* (and the paper
            # rejects).  Counted, not a strict-property violation —
            # invariant (a) only bites once the invalidation completed.
            self.stale_window_translations += 1
        self._check_dma_bounds(event, page)

    def _on_fault(self, event: DmaFaultEvent) -> None:
        self.faults_observed += 1

    # ------------------------------------------------------------------
    # Invariant (b): stale PTcache consultation
    # ------------------------------------------------------------------
    def _on_pt_reclaim(self, event: PtPageReclaimedEvent) -> None:
        self._reclaimed_ids.add(id(event.page))
        self._reclaimed_refs.append(event.page)

    def _on_ptcache_hit(self, event: PtCacheHitEvent) -> None:
        if id(event.page) in self._reclaimed_ids:
            self._violate(
                "stale-ptcache",
                f"PTcache-L{event.level} hit for iova {event.iova:#x} "
                f"returned {event.page!r}, a page-table page that was "
                "reclaimed — the walk would follow a dangling pointer",
                event,
            )

    # ------------------------------------------------------------------
    # Invariant (c): allocator discipline
    # ------------------------------------------------------------------
    def _book(self, layer: str, owner: int) -> _AllocatorBook:
        key = (layer, owner)  # one book per allocator instance
        book = self._books.get(key)
        if book is None:
            book = self._books[key] = _AllocatorBook()
        return book

    def _on_iova_alloc(self, event: IovaAllocEvent) -> None:
        book = self._book(event.layer, event.owner)
        base = event.iova >> PAGE_SHIFT
        span = range(base, base + event.pages)
        overlap = [pfn for pfn in span if pfn in book.pages]
        if overlap:
            self._violate(
                "iova-overlap",
                f"allocator layer {event.layer!r} handed out "
                f"[{event.iova:#x}, {event.iova + event.length:#x}) which "
                f"overlaps {len(overlap)} already-outstanding page(s) "
                f"(first at pfn {overlap[0]:#x})",
                event,
            )
            return
        book.ranges[base] = event.pages
        book.pages.update(span)

    def _on_iova_free(self, event: IovaFreeEvent) -> None:
        book = self._book(event.layer, event.owner)
        base = event.iova >> PAGE_SHIFT
        allocated = book.ranges.get(base)
        if allocated is None:
            self._violate(
                "iova-bad-free",
                f"allocator layer {event.layer!r} was asked to free "
                f"iova {event.iova:#x} ({event.pages} pages) which is not "
                "an outstanding allocation (double free or stray free)",
                event,
            )
            return
        if allocated != event.pages:
            self._violate(
                "iova-bad-free",
                f"allocator layer {event.layer!r} free of iova "
                f"{event.iova:#x} used {event.pages} pages but the range "
                f"was allocated with {allocated}",
                event,
            )
            return
        del book.ranges[base]
        book.pages.difference_update(range(base, base + allocated))

    # ------------------------------------------------------------------
    # Invariant (d): DMA inside registered buffers
    # ------------------------------------------------------------------
    def _on_buffer_registered(self, event: BufferRegisteredEvent) -> None:
        key = (event.owner, event.kind)
        self._buffers_seen.add(key)
        live = self._live_pages.setdefault(key, set())
        live.update(iova >> PAGE_SHIFT for iova in event.iovas)

    def _on_buffer_retired(self, event: BufferRetiredEvent) -> None:
        live = self._live_pages.setdefault((event.owner, event.kind), set())
        live.difference_update(iova >> PAGE_SHIFT for iova in event.iovas)

    def _check_dma_bounds(self, event: TranslateEvent, page: int) -> None:
        if not self.check_dma_bounds:
            return
        kind = "rx" if event.source == "rx" else "tx"
        key = (event.owner, kind)
        if key not in self._buffers_seen:
            # No driver registered buffers of this kind: bare-IOMMU use
            # (unit tests, microbenchmarks) — nothing to bound against.
            return
        if page not in self._live_pages[key]:
            self._violate(
                "dma-out-of-bounds",
                f"device access at iova {event.iova:#x} ({event.source}) "
                f"translated successfully but is outside every registered "
                f"live {kind} buffer",
                event,
            )
