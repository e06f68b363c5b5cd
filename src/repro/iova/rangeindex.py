"""An ordered index of allocated IOVA ranges with Linux's top-down scan.

Linux keeps every *allocated* IOVA range in a red-black tree and
allocates top-down: from a cached node (or the top of the space) it
walks to lower ranges until a free gap large enough appears.  The walk
is the slow path's cost, which is why Linux fronts it with per-CPU
caches (:mod:`repro.iova.caching`) and why the paper's §2.2 calls out
the CPU efficiency vs. locality trade-off.

This index holds the same ranges as sorted blocks of a few dozen
ranges each.  Each range carries the free gap directly below it, and
each block a bound on its largest gap.  A downward scan tests the same
gaps, in the same order, as the tree walk, so it returns the same
range and the same number of ranges passed (``steps``, which the
allocator charges as scan cost).  It just skips, in one step, every
block whose bound is smaller than the request, counting the block's
ranges as passed.  Insert, delete and lookup touch at most two
adjacent blocks and bisect the block list; no operation costs time
linear in the number of ranges.

Units: ranges are ``[pfn_lo, pfn_hi]`` (inclusive) in page frame
numbers (pfn = iova >> 12), matching Linux.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterable, Iterator, Optional

__all__ = ["IovaRangeIndex"]

# Ranges per block after a split; a block splits above twice this and
# merges into a neighbour below a quarter of it.
BLOCK = 64


class IovaRangeIndex:
    """Non-overlapping ``[pfn_lo, pfn_hi]`` ranges, in address order.

    Blocks are kept in ascending address order, as three parallel
    lists per block: range starts, range ends, and the free gap below
    each range (pfns between it and the next lower range, or pfn 0 for
    the lowest).  ``_firsts`` holds each block's lowest range start and
    ``_maxgap`` a bound no gap in the block exceeds.  Updates only raise
    a bound; a scan that passes a whole block lowers it to the block's
    largest gap.
    """

    __slots__ = ("_los", "_his", "_gaps", "_maxgap", "_firsts", "size")

    def __init__(self, ranges: Iterable[tuple[int, int]] = ()) -> None:
        """Build from ranges given in ascending order, in one pass."""
        los: list[int] = []
        his: list[int] = []
        for lo, hi in ranges:
            los.append(lo)
            his.append(hi)
        gaps = [lo - below - 1 for lo, below in zip(los, [-1] + his)]
        self._los = [los[at:at + BLOCK] for at in range(0, len(los), BLOCK)]
        self._his = [his[at:at + BLOCK] for at in range(0, len(his), BLOCK)]
        self._gaps = [gaps[at:at + BLOCK] for at in range(0, len(gaps), BLOCK)]
        self._maxgap = [max(block) for block in self._gaps]
        self._firsts = [block[0] for block in self._los]
        self.size = len(los)

    def __len__(self) -> int:
        return self.size

    def __iter__(self) -> Iterator[tuple[int, int]]:
        """Ranges in ascending address order, as ``(pfn_lo, pfn_hi)``."""
        for los, his in zip(self._los, self._his):
            yield from zip(los, his)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def _locate(self, pfn_lo: int) -> Optional[tuple[int, int]]:
        """(block, slot) of the range starting at ``pfn_lo``, if any."""
        block = bisect_right(self._firsts, pfn_lo) - 1
        if block < 0:
            return None
        los = self._los[block]
        slot = bisect_left(los, pfn_lo)
        if slot < len(los) and los[slot] == pfn_lo:
            return block, slot
        return None

    def find(self, pfn_lo: int) -> Optional[int]:
        """``pfn_hi`` of the range starting exactly at ``pfn_lo``."""
        found = self._locate(pfn_lo)
        if found is None:
            return None
        return self._his[found[0]][found[1]]

    def find_containing(self, pfn: int) -> Optional[tuple[int, int]]:
        """The range containing ``pfn``, if any."""
        block = bisect_right(self._firsts, pfn) - 1
        if block < 0:
            return None
        slot = bisect_right(self._los[block], pfn) - 1
        hi = self._his[block][slot]
        return (self._los[block][slot], hi) if pfn <= hi else None

    # ------------------------------------------------------------------
    # The gap scan
    # ------------------------------------------------------------------
    def scan_down(
        self, start: Optional[int], limit_pfn: int, pages: int, align: int
    ) -> Optional[tuple[int, int]]:
        """Highest ``align``-aligned gap of ``pages`` below ``start``.

        ``start`` is the pfn_lo of a range in the index, or ``None`` to
        scan from ``limit_pfn`` down.  Returns ``(pfn_lo, steps)`` or
        ``None``: ``steps`` counts the ranges passed before the gap, as
        a walk over the ranges from ``start`` down would.
        """
        mask = -align
        los_blocks, his_blocks = self._los, self._his
        gaps_blocks, maxgap = self._gaps, self._maxgap
        if start is None:
            candidate = (limit_pfn + 1 - pages) & mask
            if not los_blocks:
                return (candidate, 0) if candidate >= 0 else None
            block = len(los_blocks) - 1
            if candidate > his_blocks[block][-1]:
                return candidate, 0
            slot = len(los_blocks[block]) - 1
            steps = 1
        else:
            found = self._locate(start)
            if found is None:
                raise KeyError(start)
            block, slot = found
            steps = 0
        # Test the gap below each range from (block, slot) down.
        while True:
            if maxgap[block] >= pages:
                gaps, los = gaps_blocks[block], los_blocks[block]
                at = slot
                while at >= 0:
                    if gaps[at] >= pages:
                        candidate = (los[at] - pages) & mask
                        if at:
                            below = his_blocks[block][at - 1]
                        else:
                            below = his_blocks[block - 1][-1] if block else -1
                        if candidate > below:
                            return candidate, steps + slot - at
                    at -= 1
                if slot == len(gaps) - 1:
                    maxgap[block] = max(gaps)
            steps += slot + 1
            if not block:
                return None
            block -= 1
            slot = len(los_blocks[block]) - 1

    # ------------------------------------------------------------------
    # Update
    # ------------------------------------------------------------------
    def insert(self, pfn_lo: int, pfn_hi: int) -> None:
        """Add a range; it must not overlap one already indexed."""
        firsts = self._firsts
        if not firsts:
            self._los.append([pfn_lo])
            self._his.append([pfn_hi])
            self._gaps.append([pfn_lo])
            self._maxgap.append(pfn_lo)
            firsts.append(pfn_lo)
            self.size = 1
            return
        block = bisect_right(firsts, pfn_lo) - 1
        if block < 0:
            block = 0
        los, his = self._los[block], self._his[block]
        gaps, maxgap = self._gaps[block], self._maxgap
        slot = bisect_left(los, pfn_lo)
        if slot:
            below = his[slot - 1]
        else:
            below = self._his[block - 1][-1] if block else -1
            firsts[block] = pfn_lo
        gap = pfn_lo - below - 1
        los.insert(slot, pfn_lo)
        his.insert(slot, pfn_hi)
        gaps.insert(slot, gap)
        # The new range splits the gap below the range above it, which
        # can sit in the next block.
        if slot + 1 < len(los):
            gaps[slot + 1] = los[slot + 1] - pfn_hi - 1
        else:
            if gap > maxgap[block]:
                maxgap[block] = gap
            if block + 1 < len(firsts):
                self._gaps[block + 1][0] = firsts[block + 1] - pfn_hi - 1
        self.size += 1
        if len(los) > 2 * BLOCK:
            self._split(block)

    def delete(self, pfn_lo: int, pfn_hi: int) -> Optional[int]:
        """Remove the range ``[pfn_lo, pfn_hi]``.

        Returns the pfn_lo of the next higher range, or ``None``.
        Raises ``KeyError``, and removes nothing, unless exactly that
        range is indexed.
        """
        found = self._locate(pfn_lo)
        if found is None or self._his[found[0]][found[1]] != pfn_hi:
            raise KeyError((pfn_lo, pfn_hi))
        block, slot = found
        los, his = self._los[block], self._his[block]
        gaps, maxgap = self._gaps[block], self._maxgap
        # The gap below the range above absorbs the range and its gap.
        grown = his[slot] - pfn_lo + 1 + gaps[slot]
        del los[slot], his[slot], gaps[slot]
        self.size -= 1
        higher: Optional[int] = None
        if slot < len(los):
            gaps[slot] += grown
            higher = los[slot]
            if gaps[slot] > maxgap[block]:
                maxgap[block] = gaps[slot]
            if not slot:
                self._firsts[block] = higher
        elif block + 1 < len(self._los):
            upper = self._gaps[block + 1]
            upper[0] += grown
            higher = self._firsts[block + 1]
            if upper[0] > maxgap[block + 1]:
                maxgap[block + 1] = upper[0]
        if not los:
            self._drop(block)
        elif len(los) < BLOCK // 4 and len(self._los) > 1:
            self._merge(block - 1 if block else block)
        return higher

    def _split(self, block: int) -> None:
        """Cut an over-full block into two halves."""
        half = len(self._los[block]) // 2
        for blocks in (self._los, self._his, self._gaps):
            blocks.insert(block + 1, blocks[block][half:])
            del blocks[block][half:]
        self._firsts.insert(block + 1, self._los[block + 1][0])
        self._maxgap[block] = max(self._gaps[block])
        self._maxgap.insert(block + 1, max(self._gaps[block + 1]))

    def _merge(self, block: int) -> None:
        """Fold block ``block + 1`` into ``block``."""
        for blocks in (self._los, self._his, self._gaps):
            blocks[block] += blocks[block + 1]
        self._maxgap[block] = max(self._maxgap[block], self._maxgap[block + 1])
        self._drop(block + 1)
        if len(self._los[block]) > 2 * BLOCK:
            self._split(block)

    def _drop(self, block: int) -> None:
        for blocks in (
            self._los, self._his, self._gaps, self._maxgap, self._firsts
        ):
            del blocks[block]

    # ------------------------------------------------------------------
    # Verification (for property tests)
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Assert ordering and the per-block summaries; raises on violation."""
        below = -1
        count = 0
        blocks = zip(
            self._los, self._his, self._gaps, self._maxgap, self._firsts
        )
        for los, his, gaps, maxgap, first in blocks:
            if not 0 < len(los) <= 2 * BLOCK:
                raise AssertionError(f"block of {len(los)} ranges")
            if not len(los) == len(his) == len(gaps):
                raise AssertionError("block lists differ in length")
            if first != los[0] or maxgap < max(gaps):
                raise AssertionError(f"stale summary for block at {first:#x}")
            for lo, hi, gap in zip(los, his, gaps):
                if not below < lo <= hi:
                    raise AssertionError(
                        f"range [{lo:#x}, {hi:#x}] overlaps or is unsorted"
                    )
                if gap != lo - below - 1:
                    raise AssertionError(f"stale gap below {lo:#x}")
                below = hi
            count += len(los)
        if count != self.size:
            raise AssertionError(f"size {self.size} but {count} ranges")
