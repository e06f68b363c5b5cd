"""Batched same-page translation: resolve a NIC burst in one call.

The NIC splits every 4 KB page of a DMA into ``max_payload``-sized PCIe
TLPs and translates each one.  Within one such burst every IOVA lands in
the same page and no simulator event runs in between, so once the first
``translate()`` has run, the page's translation is the IOTLB's MRU
entry and every remaining call is an IOTLB hit on it.  This module
replaces those N-1 interpreted calls with N-1 worth of arithmetic, the
translation-batching unit of work suggested by MMU-aware DMA prefetch
designs (Kurth et al. 2018).

Byte-exactness argument: under :func:`burst_ready` the scalar loop's
calls 2..N are IOTLB hits on the MRU entry.  The first call either hit
(and moved the entry to MRU) or walked and inserted it as MRU; nothing
runs in between to evict or invalidate it.  Storm injection needs a
fault runtime and aborts need a fault queue, both excluded here, and
with stale-hit checking off a hit never consults the page table.  Each
such call's complete effect is ``translations += 1``,
``translations_by_source[s] += 1``, ``iotlb_hits += 1``, ``iotlb.hits
+= 1`` with a zero-read result; re-touching the MRU entry's LRU
position moves nothing.  :func:`replay_hits` performs those exact
increments ``count`` times.  Only the first TLP of a page can miss,
walk or fault, so walk timing and ``DmaFault`` propagation are
untouched.

The scalar loop remains the only path whenever any per-call work could
differ — invariant monitor or fault runtime installed (see
:attr:`repro.context.RunContext.per_call`), stale-hit checking on, or a
fault-reporting queue present.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from .iommu import Iommu

__all__ = ["burst_ready", "replay_hits"]


def burst_ready(iommu: Iommu) -> bool:
    """True iff a same-page burst may be replayed arithmetically.

    Not when an observer sees every call (``per_call``: the invariant
    monitor, the fault runtime), when each hit checks the page table
    for staleness, or when a fault-reporting queue rolls a per-call
    abort outcome.
    """
    return (
        not iommu.per_call
        and not iommu.config.check_stale_hits
        and iommu.fault_queue is None
    )


def replay_hits(iommu: Iommu, count: int, source: str) -> None:
    """Apply the counter effect of ``count`` IOTLB hits on the MRU entry.

    Exactly what ``count`` consecutive ``translate()`` calls on the
    page the burst's first call left as MRU would do — nothing more
    (there is no LRU motion to model).
    """
    stats = iommu.stats
    stats.translations += count
    by_source = stats.translations_by_source
    by_source[source] = by_source.get(source, 0) + count
    stats.iotlb_hits += count
    iommu.iotlb.hits += count
