"""IOVA allocation: Linux's slow path and per-CPU caches, and F&S chunks.

* :class:`RbTreeIovaAllocator` -- Linux's top-down slow path over an
  ordered range index (:class:`IovaRangeIndex`), with the cached scan
  node and a per-range scan cost;
* :class:`CachingIovaAllocator` -- the per-CPU magazines and depot in
  front of it, and the closed-form long-uptime aging;
* :class:`ChunkIovaAllocator` -- F&S's contiguous per-descriptor chunks.
"""

from .allocator import (
    DEFAULT_LIMIT_PFN,
    IovaAllocator,
    IovaExhaustedError,
    RbTreeIovaAllocator,
)
from .caching import (
    MAG_SIZE,
    MAX_CACHED_ORDER,
    CachingIovaAllocator,
    Magazine,
)
from .contiguous import DEFAULT_CHUNK_PAGES, ChunkIovaAllocator, IovaChunk
from .rangeindex import IovaRangeIndex

__all__ = [
    "IovaAllocator",
    "RbTreeIovaAllocator",
    "CachingIovaAllocator",
    "ChunkIovaAllocator",
    "IovaChunk",
    "IovaRangeIndex",
    "Magazine",
    "IovaExhaustedError",
    "DEFAULT_LIMIT_PFN",
    "DEFAULT_CHUNK_PAGES",
    "MAG_SIZE",
    "MAX_CACHED_ORDER",
]
