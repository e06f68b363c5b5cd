"""The IOMMU fault-reporting queue (PRI-style hard-fault path).

Real IOMMUs do not raise exceptions: a DMA to an unmapped (or
invalidated) IOVA is *aborted* — the root complex returns a completion
with UR/CA status to the device — and a fault record describing the
access is written to a host-visible circular buffer (VT-d's fault
recording registers / fault log, SMMU's event queue, PRI page-request
queues).  The host consumes records off the queue and decides what to
do: ignore, log, or reset the offending function.

:class:`FaultReportingQueue` models that buffer.  It is deliberately
dumb — bounded, ordered, clocked off the simulator — because the
interesting behaviour (what the *driver* does about faults) lives in
:mod:`repro.nic.recovery` and the protection drivers.  When the queue
overflows, new records are dropped but still counted: hardware fault
logs behave the same way, and a fault storm must not grow memory
without bound.

The queue is attached to an :class:`~repro.iommu.iommu.Iommu` via
``IommuConfig(fault_queue=True)``.  Without it (the default), an
unmapped DMA raises :class:`~repro.iommu.iommu.DmaFault` exactly as
before — the hard-abort path is strictly opt-in so that the existing
safety tests keep their raise-on-violation semantics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..context import current_context

__all__ = [
    "FaultReportingQueue",
    "IommuFaultRecord",
    "ABORT_LATENCY_NS",
    "CAPACITY",
]

# Records the log holds before it drops new ones.
CAPACITY = 256
# Latency charged to the aborted transaction: the root complex detects
# the missing translation, synthesizes the UR/CA completion, and writes
# the fault record.  Order of a microsecond on real parts.
ABORT_LATENCY_NS = 800.0


@dataclass(frozen=True)
class IommuFaultRecord:
    """One logged translation fault (PRI-style record)."""

    time_ns: float
    iova: int
    source: str  # "rx" | "tx" — which datapath issued the DMA
    reason: str  # "unmapped" | "storm"

    def format(self) -> str:
        return (
            f"{self.time_ns:.3f} fault iova={self.iova:#x} "
            f"src={self.source} reason={self.reason}"
        )


class FaultReportingQueue:
    """Bounded host-visible log of aborted DMA translations."""

    def __init__(self) -> None:
        self.records: list[IommuFaultRecord] = []
        self.reported = 0
        self.overflowed = 0
        self.drained = 0
        # Bound late (the Iommu is built before the simulator in some
        # tests); unbound records are stamped 0.0.
        self._clock: Optional[Callable[[], float]] = None
        self.obs = current_context().registry
        if self.obs is not None:
            scope = self.obs.scope("faultq")
            scope.counter("reported", lambda: self.reported)
            scope.counter("overflowed", lambda: self.overflowed)
            scope.counter("drained", lambda: self.drained)
            scope.gauge("depth", lambda: len(self.records))

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Attach the simulated clock used to stamp fault records."""
        self._clock = clock

    def _now(self) -> float:
        return self._clock() if self._clock is not None else 0.0

    # ------------------------------------------------------------------
    # Device side (called by the Iommu on an aborted translation)
    # ------------------------------------------------------------------
    def report(self, iova: int, source: str, reason: str) -> float:
        """Log one fault; returns the abort latency to charge the DMA."""
        self.reported += 1
        if len(self.records) < CAPACITY:
            self.records.append(
                IommuFaultRecord(self._now(), iova, source, reason)
            )
        else:
            # Hardware fault logs drop-on-full (with a sticky overflow
            # bit); modeling that keeps a fault storm O(capacity).
            self.overflowed += 1
        return ABORT_LATENCY_NS

    # ------------------------------------------------------------------
    # Host side
    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        return len(self.records)

    def drain(self) -> list[IommuFaultRecord]:
        """Consume and return all pending records, oldest first."""
        records = self.records
        self.records = []
        self.drained += len(records)
        return records
