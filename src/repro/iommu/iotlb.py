"""The IOTLB: a set-associative, LRU cache of IOVA → frame translations.

Real IOTLB geometries are not public; the IOMMU's (128 entries, 8-way)
is in the range prior work assumes [Amit et al. 2010; Neugebauer et al.
2018].  Under the strict protection mode the IOTLB
miss *count* is dominated by compulsory misses (every page's first
transaction after its IOVA was invalidated), so the experiments are not
sensitive to the exact geometry; contention-induced extra misses (the
paper's 1.3–2.2 misses/page) come from concurrent Rx/Tx translations
and do depend on associativity, which tests cover.

Python dicts iterate in insertion order, so each set is a dict used as
an LRU list: hits delete + reinsert the key, evictions pop the oldest.
"""

from __future__ import annotations

from typing import Optional

from ..context import current_context
from ..verify.events import IotlbEvictEvent
from .addr import PAGE_SHIFT

__all__ = ["Iotlb"]

# Dedicated 2 MB-translation array (hardware IOTLBs keep huge entries
# in a separate, smaller structure).
HUGE_ENTRIES = 32


class Iotlb:
    """Set-associative LRU IOTLB over 4 KB translations."""

    def __init__(self, entries: int, ways: int) -> None:
        if entries <= 0 or ways <= 0:
            raise ValueError("entries and ways must be positive")
        if entries % ways:
            raise ValueError("entries must be a multiple of ways")
        self.entries = entries
        self.ways = ways
        self.num_sets = entries // ways
        self._sets: list[dict[int, int]] = [dict() for _ in range(self.num_sets)]
        # The 2 MB array: fully associative LRU of HUGE_ENTRIES; key is
        # iova >> 21, value is the base frame of the 512 contiguous
        # backing frames.
        self._huge: dict[int, int] = {}
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.evictions = 0
        # Safety-invariant monitor (repro.verify); None in normal runs.
        self.monitor = current_context().monitor
        self.obs = current_context().registry
        if self.obs is not None:
            scope = self.obs.scope("iotlb")
            scope.counter("hits", lambda: self.hits)
            scope.counter("misses", lambda: self.misses)
            scope.counter("invalidations", lambda: self.invalidations)
            scope.counter("evictions", lambda: self.evictions)
            scope.gauge("resident", lambda: self.resident_entries)
            scope.gauge("huge_resident", lambda: len(self._huge))

    def _set_for(self, page_number: int) -> dict[int, int]:
        return self._sets[page_number % self.num_sets]

    def lookup(self, iova: int) -> Optional[int]:
        """Probe the IOTLB; returns the frame on hit, ``None`` on miss.

        Both the 4 KB array and the 2 MB array are probed (hardware
        checks them in parallel)."""
        page_number = iova >> PAGE_SHIFT
        entry_set = self._set_for(page_number)
        frame = entry_set.get(page_number)
        if frame is None:
            huge_key = iova >> 21
            base = self._huge.get(huge_key)
            if base is not None:
                del self._huge[huge_key]
                self._huge[huge_key] = base
                self.hits += 1
                return base + (page_number & 511)
            self.misses += 1
            return None
        # LRU touch: move to the back of the insertion order.
        del entry_set[page_number]
        entry_set[page_number] = frame
        self.hits += 1
        return frame

    def contains(self, iova: int) -> bool:
        """Non-counting, non-LRU-touching presence check.

        Used by safety checks ("could the device still translate this
        IOVA?") that must not perturb the statistics.
        """
        page_number = iova >> PAGE_SHIFT
        if page_number in self._set_for(page_number):
            return True
        return (iova >> 21) in self._huge

    def insert(self, iova: int, frame: int) -> None:
        """Install a translation, evicting the set's LRU entry if full."""
        page_number = iova >> PAGE_SHIFT
        entry_set = self._set_for(page_number)
        if page_number in entry_set:
            del entry_set[page_number]
        elif len(entry_set) >= self.ways:
            oldest = next(iter(entry_set))
            del entry_set[oldest]
            self.evictions += 1
            if self.monitor is not None:
                self.monitor.record(
                    IotlbEvictEvent(oldest << PAGE_SHIFT), owner=id(self)
                )
        entry_set[page_number] = frame

    def insert_huge(self, iova: int, base_frame: int) -> None:
        """Install a 2 MB translation, LRU-evicting from the huge array."""
        key = iova >> 21
        if key in self._huge:
            del self._huge[key]
        elif len(self._huge) >= HUGE_ENTRIES:
            del self._huge[next(iter(self._huge))]
            self.evictions += 1
        self._huge[key] = base_frame

    def invalidate_range(self, iova: int, length: int) -> int:
        """Drop all entries within ``[iova, iova + length)``.

        Returns the number of entries dropped.  This is the semantics of
        a single VT-d invalidation-queue IOTLB descriptor with an
        address-range granule — the operation F&S uses for its batched
        per-descriptor invalidations.
        """
        first = iova >> PAGE_SHIFT
        last = (iova + length - 1) >> PAGE_SHIFT
        dropped = 0
        sets = self._sets
        if last - first + 1 >= self.entries:
            # Cheaper to scan every resident entry than every page.
            for entry_set in sets:
                for page_number in [
                    p for p in entry_set if first <= p <= last
                ]:
                    del entry_set[page_number]
                    dropped += 1
        else:
            num_sets = self.num_sets
            for page_number in range(first, last + 1):
                # Cached frames are ints, never None.
                if sets[page_number % num_sets].pop(page_number, None) is not None:
                    dropped += 1
        if self._huge:
            first_huge = iova >> 21
            last_huge = (iova + length - 1) >> 21
            for key in [
                k for k in self._huge if first_huge <= k <= last_huge
            ]:
                del self._huge[key]
                dropped += 1
        self.invalidations += dropped
        return dropped

    def flush(self) -> int:
        """Global invalidation (the deferred mode's periodic flush)."""
        dropped = sum(len(s) for s in self._sets) + len(self._huge)
        for entry_set in self._sets:
            entry_set.clear()
        self._huge.clear()
        self.invalidations += dropped
        return dropped

    @property
    def resident_entries(self) -> int:
        return sum(len(s) for s in self._sets) + len(self._huge)

    @property
    def miss_rate(self) -> float:
        total = self.hits + self.misses
        return self.misses / total if total else 0.0
