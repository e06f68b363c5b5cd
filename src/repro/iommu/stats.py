"""IOMMU statistics: the simulation's equivalent of PCM counters.

The paper measures IOTLB and PTcache misses with Intel PCM hardware
counters and normalizes them per 4 KB page of received data.  We count
the same quantities exactly (no sampling); the testbed reads them at the
start and end of its measurement window to exclude warm-up.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["IommuStats"]


@dataclass
class IommuStats:
    """Monotonic counters maintained by :class:`repro.iommu.Iommu`."""

    translations: int = 0
    iotlb_hits: int = 0
    iotlb_misses: int = 0
    walks: int = 0
    memory_reads: int = 0
    # The paper's m1/m2/m3: PTcache misses that added a memory read.
    ptcache_counted_misses: dict[int, int] = field(
        default_factory=lambda: {1: 0, 2: 0, 3: 0}
    )
    faults: int = 0
    invalidation_requests: int = 0
    ptcache_invalidation_requests: int = 0
