"""IOMMU model: IO page table, IOTLB, PTcache-L1/L2/L3, invalidation queue.

This package models the Intel VT-d style translation machinery exactly
as the paper describes it in §2.1, including the IO page table caches
(the paper's central discovery) and Linux's page-table-page reclamation
semantics (Fig 5) that make F&S's PTcache preservation safe.
"""

from .addr import (
    ENTRIES_PER_PAGE,
    IOVA_BITS,
    IOVA_SPACE_SIZE,
    LEVEL_SHIFTS,
    PAGE_SHIFT,
    PAGE_SIZE,
    PTL4_PAGE_SHIFT,
    PTL4_PAGE_SIZE,
    level_index,
    ptcache_coverage_bytes,
    ptcache_key,
    vpn,
)
from .faultq import FaultReportingQueue, IommuFaultRecord
from .invalidation import InvalidationQueue
from .iommu import DmaFault, Iommu, IommuConfig, TranslationResult
from .iotlb import Iotlb
from .pagetable import (
    IOPageTable,
    MappingError,
    PageTablePage,
    ReclaimedPage,
    WalkResult,
)
from .ptcache import ProbeOutcome, PtCache, PtCacheHierarchy
from .stats import IommuStats

__all__ = [
    "Iommu",
    "IommuConfig",
    "TranslationResult",
    "DmaFault",
    "IOPageTable",
    "PageTablePage",
    "ReclaimedPage",
    "WalkResult",
    "MappingError",
    "Iotlb",
    "PtCache",
    "PtCacheHierarchy",
    "ProbeOutcome",
    "InvalidationQueue",
    "FaultReportingQueue",
    "IommuFaultRecord",
    "IommuStats",
    "IOVA_BITS",
    "IOVA_SPACE_SIZE",
    "PAGE_SHIFT",
    "PAGE_SIZE",
    "PTL4_PAGE_SHIFT",
    "PTL4_PAGE_SIZE",
    "ENTRIES_PER_PAGE",
    "LEVEL_SHIFTS",
    "vpn",
    "level_index",
    "ptcache_key",
    "ptcache_coverage_bytes",
]
