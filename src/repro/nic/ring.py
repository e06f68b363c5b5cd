"""The per-core Rx ring: an ordered set of descriptors.

The driver posts descriptors; the NIC consumes page slots in order as
packets arrive (aRFS steers each flow to one core's ring, so a ring's
slots are consumed by that core's flows only).  When the head
descriptor's pages are all consumed and written, it is *complete*: the
host pops it, the protection driver unmaps/invalidates/frees it, and a
fresh descriptor is posted — keeping the posted-descriptor count (the
ring size) constant.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Optional

from .descriptor import PageSlot, RxDescriptor

if TYPE_CHECKING:  # pragma: no cover
    from ..faults.injectors import NicInjector
    from ..sim import Simulator

__all__ = ["RxRing"]


class RxRing:
    """Ordered descriptors for one core."""

    def __init__(
        self,
        core: int,
        sim: Optional["Simulator"] = None,
        faults: Optional["NicInjector"] = None,
    ) -> None:
        self.core = core
        self._descriptors: deque[RxDescriptor] = deque()
        self.posted_descriptors = 0
        self.completed_descriptors = 0
        # Unconsumed page slots across all posted descriptors, kept as
        # a count: every arrival reads it.
        self.free_pages = 0
        # Leading descriptors whose slots are all consumed (they wait
        # for their DMAs to land); take_pages starts past them.
        self._exhausted = 0
        # Fault plumbing (repro.faults); both None in normal runs.
        self.sim = sim
        self.faults = faults
        self.dropped_doorbells = 0

    def post(self, descriptor: RxDescriptor) -> None:
        if self.faults is not None and self.sim is not None:
            delay = self.faults.doorbell_delay()
            if delay > 0.0:
                # The doorbell write was lost: the descriptor sits in
                # host memory but the NIC doesn't know about it until a
                # later write re-advertises the tail pointer.  Until
                # then its pages are invisible to arrival processing
                # (so the ring looks exhausted — a drop mode).
                self.dropped_doorbells += 1
                self.sim.schedule_after(
                    delay, lambda d=descriptor: self._post_now(d)
                )
                return
        self._post_now(descriptor)

    def _post_now(self, descriptor: RxDescriptor) -> None:
        self._descriptors.append(descriptor)
        self.posted_descriptors += 1
        self.free_pages += descriptor.free_pages

    def take_pages(self, count: int) -> list[tuple[RxDescriptor, PageSlot]]:
        """Consume ``count`` page slots in order (may span descriptors).

        Raises ``RuntimeError`` if the ring has fewer free pages; the
        caller must check :attr:`free_pages` first (and drop the packet
        if the ring is empty — the "ring exhaustion" drop mode).
        """
        if count > self.free_pages:
            raise RuntimeError("ring has too few free pages")
        taken: list[tuple[RxDescriptor, PageSlot]] = []
        descriptors = self._descriptors
        skip = self._exhausted
        need = count
        while need:
            descriptor = descriptors[skip]
            if descriptor.is_exhausted:  # spent, or posted empty
                skip += 1
                continue
            run = descriptor.take_run(need)
            need -= len(run)
            for slot in run:
                taken.append((descriptor, slot))
        self._exhausted = skip
        self.free_pages -= count
        return taken

    def pop_completed(self) -> list[RxDescriptor]:
        """Remove and return all leading complete descriptors."""
        completed = []
        while self._descriptors and self._descriptors[0].is_complete:
            completed.append(self._descriptors.popleft())
            self.completed_descriptors += 1
            # The head counts among the skipped ones once a take has
            # passed it (a take that never reached it counted nothing).
            if self._exhausted:
                self._exhausted -= 1
        return completed

    def head(self) -> Optional[RxDescriptor]:
        return self._descriptors[0] if self._descriptors else None

    def drain(self) -> list[RxDescriptor]:
        """Remove and return *all* posted descriptors (device reset).

        Unlike :meth:`pop_completed` this takes incomplete descriptors
        too and does not count completions: the descriptors were torn
        off the ring by a reset, not retired by the device.  The caller
        (the recovery path) owns unmapping their outstanding pages.
        """
        drained = list(self._descriptors)
        self._descriptors.clear()
        self.free_pages = 0
        self._exhausted = 0
        return drained
