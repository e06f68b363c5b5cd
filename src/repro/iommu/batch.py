"""Batched same-page translation: resolve a NIC burst in one call.

The NIC splits every 4 KB page of a DMA into ``max_payload``-sized PCIe
TLPs and translates each one.  Within one such burst every IOVA lands in
the same page and no simulator event runs in between, so after the first
``translate()`` the IOMMU's one-entry fast path is armed for exactly
that (source, page, generation) and every remaining call is a pure
counter replay — ``translate()`` re-executes four ``+= 1`` statements
and returns the cached hit.  This module replaces those N-1 interpreted
calls with N-1 worth of arithmetic, the translation-batching unit of
work suggested by MMU-aware DMA prefetch designs (Kurth et al. 2018).

Byte-exactness argument: under :func:`burst_ready` the scalar loop's
calls 2..N each take the fast-replay branch of
:meth:`~repro.iommu.iommu.Iommu.translate` (storm injection needs a
fault runtime, which turns ``_fast_enabled`` off; aborts need a fault
queue, excluded here), whose complete effect is ``translations += 1``,
``translations_by_source[s] += 1``, ``iotlb_hits += 1``, ``iotlb.hits
+= 1`` with a zero-read result.  :func:`replay_hits` performs those
exact increments ``count`` times.  Only the first TLP of a page can
miss, walk or fault, so walk timing and ``DmaFault`` propagation are
untouched.

The scalar loop remains the only path whenever any per-call work could
differ — invariant monitor or fault runtime installed, stale-hit
checking on (all three disable ``_fast_enabled``; see
:attr:`repro.context.RunContext.per_call`), or a fault-reporting queue
present.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from .iommu import Iommu

__all__ = ["burst_ready", "replay_hits"]


def burst_ready(iommu: Iommu) -> bool:
    """True iff a same-page burst may be replayed arithmetically.

    ``_fast_enabled`` already excludes the invariant monitor, the
    fault runtime and stale-hit checking; the fault-reporting queue
    (per-translation abort outcomes) is the one remaining source of
    per-call variation.
    """
    return iommu._fast_enabled and iommu.fault_queue is None


def replay_hits(iommu: Iommu, count: int, source: str) -> None:
    """Apply the counter effect of ``count`` fast-path hit replays.

    Exactly what ``count`` consecutive ``translate()`` calls on the
    armed fast-path page would do — nothing more (the armed entry is
    already the IOTLB's MRU entry, so there is no LRU motion to model).
    """
    stats = iommu.stats
    stats.translations += count
    by_source = stats.translations_by_source
    by_source[source] = by_source.get(source, 0) + count
    stats.iotlb_hits += count
    iommu.iotlb.hits += count
