"""PTcache-L3 reuse-distance analysis (Figs 2e, 3e, 7e, 8e).

The paper plots, for each subsequent IOVA allocation, the number of
*unique* PTcache-L3 entries used since that allocation's L3 entry was
last used — the classic LRU stack distance, computed over the
allocator's output stream.  A distance above the cache size means the
entry would have been evicted before reuse (an L3 miss under LRU); the
paper draws thresholds at 64 and 128, its estimated cache-size range.

Multi-page allocations (F&S chunks) are expanded into their page
IOVAs, so an F&S trace shows distance-0 runs within each chunk with
occasional spikes at descriptor boundaries — exactly Fig 7e's shape.

The stack distance is read straight off an LRU recency list kept in
move-to-front order: a key's index in the list is the number of
distinct keys used since its last use.  A repeat of the previous key
(a run of pages inside one chunk or one 2 MB region, the common case)
is distance 0 with no search; any other key is found with one
``list.index``, a search done in C, and moved to the front.  A key not
in the list is cold.  That is O(n·d) for n accesses over d distinct
keys; the figures' traces touch at most a few dozen to a hundred 2 MB
regions, so d stays small.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from ..iommu.addr import LEVEL_SHIFTS, PAGE_SIZE

__all__ = [
    "l3_key_stream",
    "reuse_distances",
    "LocalitySummary",
    "summarize_locality",
]

INFINITE = -1  # first use of a key (cold): no reuse distance

_L3_SHIFT = LEVEL_SHIFTS[3]
_NO_KEY = object()  # matches no key: the first access always searches


def l3_key_stream(trace: Sequence[tuple[int, int]]) -> list[int]:
    """Expand an allocation trace into per-page PTcache-L3 keys.

    ``trace`` entries are ``(iova, pages)`` as recorded by the IOVA
    allocators; each page contributes the key of its 2 MB region
    (``ptcache_key(page_iova, 3)``).
    """
    keys: list[int] = []
    append = keys.append
    extend = keys.extend
    for iova, pages in trace:
        first = iova >> _L3_SHIFT
        if pages == 1:
            append(first)
        elif (iova + (pages - 1) * PAGE_SIZE) >> _L3_SHIFT == first:
            extend([first] * pages)
        else:
            extend(
                (iova + index * PAGE_SIZE) >> _L3_SHIFT
                for index in range(pages)
            )
    return keys


def reuse_distances(keys: Sequence[object]) -> list[int]:
    """LRU stack distance of each access; ``INFINITE`` (-1) when cold.

    distance = number of *distinct other* keys accessed since this
    key's previous access.  Computed on a move-to-front recency list
    (see the module docstring): a repeat of the previous key is 0
    without a search, any other key costs one ``list.index`` over the
    d distinct keys seen so far, O(n·d) in all.
    """
    recency: list = []  # most recently used first
    distances: list[int] = []
    append = distances.append
    previous: object = _NO_KEY
    for key in keys:
        if key == previous:
            append(0)
            continue
        previous = key
        try:
            depth = recency.index(key)
        except ValueError:
            append(INFINITE)
        else:
            append(depth)
            del recency[depth]
        recency.insert(0, key)
    return distances


@dataclass(frozen=True)
class LocalitySummary:
    """Aggregate view of a reuse-distance trace (one figure panel)."""

    accesses: int
    cold_accesses: int
    mean_distance: float
    p95_distance: float
    max_distance: int
    fraction_above_64: float
    fraction_above_128: float


def summarize_locality(trace: Sequence[tuple[int, int]]) -> LocalitySummary:
    """Compute the Fig 2e-style summary for an allocation trace."""
    histogram = Counter(reuse_distances(l3_key_stream(trace)))
    cold = histogram.pop(INFINITE, 0)
    count = sum(histogram.values())  # warm accesses
    if not count:
        return LocalitySummary(
            accesses=cold,
            cold_accesses=cold,
            mean_distance=0.0,
            p95_distance=0.0,
            max_distance=0,
            fraction_above_64=0.0,
            fraction_above_128=0.0,
        )
    # Walk the distinct distances in order: the p95 is the warm
    # access at 0-based rank ``min(count - 1, int(0.95 * count))``.
    rank = min(count - 1, int(0.95 * count))
    total = above_64 = above_128 = 0
    p95 = -1
    for distance, times in sorted(histogram.items()):
        total += distance * times
        if p95 < 0 and rank < times:
            p95 = distance
        rank -= times
        if distance > 64:
            above_64 += times
            if distance > 128:
                above_128 += times
    return LocalitySummary(
        accesses=cold + count,
        cold_accesses=cold,
        mean_distance=total / count,
        p95_distance=float(p95),
        max_distance=max(histogram),
        fraction_above_64=above_64 / count,
        fraction_above_128=above_128 / count,
    )
