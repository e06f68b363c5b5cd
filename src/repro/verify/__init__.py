"""Mechanical verification of the reproduction's safety claims.

Two halves:

* the **runtime invariant checker** (:class:`InvariantMonitor`) —
  installed on the run context (``with using(monitor=monitor):``,
  :mod:`repro.context`), it hooks the IOMMU, its caches, the
  invalidation queue, the IOVA allocators and the protection drivers
  through a zero-cost-when-disabled event API and checks the paper's
  safety invariants per simulated event;
* the **static checker** (:mod:`repro.verify.analyze`, exposed as
  ``python -m repro analyze``) — rules over a one-parse project model
  that protect simulator determinism and driver safety discipline.

See ``README.md`` ("Verification") for the invariant catalogue.
"""

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
from .monitor import InvariantMonitor
from .violation import InvariantViolation

__all__ = [
    "InvariantMonitor",
    "InvariantViolation",
    "Event",
    "MapEvent",
    "UnmapEvent",
    "InvalidationEvent",
    "PtCacheInvalidationEvent",
    "FlushEvent",
    "TranslateEvent",
    "DmaFaultEvent",
    "PtCacheHitEvent",
    "PtPageReclaimedEvent",
    "IotlbEvictEvent",
    "IovaAllocEvent",
    "IovaFreeEvent",
    "BufferRegisteredEvent",
    "BufferRetiredEvent",
]
