"""F&S contiguous IOVA chunk management.

F&S allocates IOVA space in large contiguous, descriptor-sized chunks
(256 KB = 64 pages by default, matching the Mellanox CX-5 descriptor)
and maps individual 4 KB pages into them:

* **Rx**: the driver allocates one chunk per descriptor up front
  (:meth:`ChunkIovaAllocator.alloc_chunk`) and maps the descriptor's 64
  pages to consecutive chunk offsets.

* **Tx**: pages arrive one at a time (a socket buffer per packet/ACK),
  possibly spanning descriptors, so :meth:`alloc_page` slices the
  current per-core chunk sequentially — in NIC access order — and
  starts a new chunk when the old one is fully carved (paper §3, the
  Tx generalization).

A chunk is returned to the underlying allocator only when every one of
its pages has been released, keeping the allocator interface unchanged
(one of F&S's stated properties).  Note that 64-page requests bypass
the Linux rcache (it caches at most 32-page sizes), so F&S chunks come
from the rbtree slow path — at 1/64th the call rate, which is why F&S's
allocator CPU cost stays low despite using the slow path.
"""

from __future__ import annotations

from typing import Optional

from ..iommu.addr import PAGE_SIZE
from .allocator import IovaAllocator

__all__ = ["IovaChunk", "ChunkIovaAllocator", "DEFAULT_CHUNK_PAGES"]

DEFAULT_CHUNK_PAGES = 64  # 256 KB, one CX-5 descriptor


class IovaChunk:
    """One contiguous chunk being carved into page-sized IOVAs."""

    __slots__ = ("base_iova", "pages", "next_slice", "released")

    def __init__(self, base_iova: int, pages: int):
        self.base_iova = base_iova
        self.pages = pages
        self.next_slice = 0
        self.released = 0

    @property
    def exhausted(self) -> bool:
        """All slices handed out (no more allocations from this chunk)."""
        return self.next_slice >= self.pages

    @property
    def fully_released(self) -> bool:
        return self.released >= self.pages

    def take_slice(self) -> int:
        """Hand out the next sequential 4 KB IOVA."""
        if self.exhausted:
            raise RuntimeError("chunk exhausted")
        iova = self.base_iova + self.next_slice * PAGE_SIZE
        self.next_slice += 1
        return iova

    def contains(self, iova: int) -> bool:
        return (
            self.base_iova <= iova < self.base_iova + self.pages * PAGE_SIZE
        )


class ChunkIovaAllocator:
    """Carves page-sized IOVAs out of contiguous per-core chunks."""

    def __init__(
        self,
        base: IovaAllocator,
        num_cpus: int,
        chunk_pages: int = DEFAULT_CHUNK_PAGES,
        align_chunks: bool = False,
    ) -> None:
        if chunk_pages <= 0:
            raise ValueError("chunk_pages must be positive")
        self.base = base
        self.num_cpus = num_cpus
        self.chunk_pages = chunk_pages
        # Hugepage-backed chunks must start on their own size boundary.
        self.align_chunks = align_chunks
        self._current: list[Optional[IovaChunk]] = [None] * num_cpus
        # Chunks with outstanding pages, keyed by their stride
        # ``base_iova // span``.  Live chunks never overlap, so no two
        # bases share a stride, and the chunk holding an iova starts in
        # the iova's stride or the one below it.
        self._span = chunk_pages * PAGE_SIZE
        self._live_chunks: dict[int, IovaChunk] = {}
        self.chunks_allocated = 0
        self.chunks_freed = 0

    # ------------------------------------------------------------------
    def alloc_chunk(self, cpu: int = 0) -> IovaChunk:
        """Allocate a whole chunk (the Rx per-descriptor path)."""
        if self.align_chunks:
            base_iova = self.base.alloc(
                self.chunk_pages, cpu=cpu, align_pages=self.chunk_pages
            )
        else:
            base_iova = self.base.alloc(self.chunk_pages, cpu=cpu)
        chunk = IovaChunk(base_iova, self.chunk_pages)
        self._live_chunks[base_iova // self._span] = chunk
        self.chunks_allocated += 1
        return chunk

    def alloc_page(self, cpu: int = 0) -> int:
        """Allocate the next sequential page IOVA (the Tx path)."""
        return self.alloc_page_with_chunk(cpu=cpu)[0]

    def alloc_page_with_chunk(self, cpu: int = 0) -> tuple[int, IovaChunk]:
        """Like :meth:`alloc_page` but also returns the owning chunk,
        so callers can split later releases at chunk boundaries without
        a lookup."""
        chunk = self._current[cpu]
        if chunk is None or chunk.exhausted:
            chunk = self.alloc_chunk(cpu=cpu)
            self._current[cpu] = chunk
        return chunk.take_slice(), chunk

    # ------------------------------------------------------------------
    def release_pages(self, iova: int, pages: int, cpu: int = 0) -> None:
        """Mark ``pages`` starting at ``iova`` as no longer in use.

        The range must lie within a single chunk — chunks are not
        address-adjacent, so a Tx descriptor that straddles chunks is
        released with one call per chunk (the datapath splits ranges at
        the chunk boundary it already tracks).  When every page of a
        chunk has been released, the chunk returns to the base
        allocator.
        """
        chunk = self._find_chunk(iova)
        if chunk is None:
            raise ValueError(f"iova {iova:#x} is not in a live chunk")
        end = iova + pages * PAGE_SIZE
        if end > chunk.base_iova + chunk.pages * PAGE_SIZE:
            raise ValueError(
                f"release [{iova:#x}, {end:#x}) crosses the chunk boundary; "
                "split the release at chunk granularity"
            )
        chunk.released += pages
        if chunk.released > chunk.pages:
            raise ValueError(f"chunk {chunk.base_iova:#x} over-released")
        if chunk.fully_released:
            del self._live_chunks[chunk.base_iova // self._span]
            if self._current[cpu] is chunk:
                self._current[cpu] = None
            self.base.free(chunk.base_iova, chunk.pages, cpu=cpu)
            self.chunks_freed += 1

    def release_chunk(self, chunk: IovaChunk, cpu: int = 0) -> None:
        """Release a whole chunk at once (the Rx per-descriptor path)."""
        stride = chunk.base_iova // self._span
        if self._live_chunks.get(stride) is not chunk:
            raise ValueError(f"chunk {chunk.base_iova:#x} is not live")
        del self._live_chunks[stride]
        self.base.free(chunk.base_iova, chunk.pages, cpu=cpu)
        self.chunks_freed += 1

    def chunk_of(self, iova: int) -> Optional[IovaChunk]:
        """The live chunk containing ``iova``, if any (for boundary
        splitting in the Tx datapath)."""
        return self._find_chunk(iova)

    # ------------------------------------------------------------------
    def _find_chunk(self, iova: int) -> Optional[IovaChunk]:
        stride = iova // self._span
        for key in (stride, stride - 1):
            chunk = self._live_chunks.get(key)
            if chunk is not None and chunk.contains(iova):
                return chunk
        return None

    @property
    def live_chunk_count(self) -> int:
        return len(self._live_chunks)
