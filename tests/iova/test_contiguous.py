"""Unit tests for F&S contiguous chunk allocation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.iommu.addr import PAGE_SIZE, PTL4_PAGE_SIZE, ptcache_key
from repro.iova import (
    CachingIovaAllocator,
    ChunkIovaAllocator,
    RbTreeIovaAllocator,
)


def make(chunk_pages=64, num_cpus=2):
    base = RbTreeIovaAllocator()
    return ChunkIovaAllocator(base, num_cpus=num_cpus, chunk_pages=chunk_pages)


class TestChunkAllocation:
    def test_chunk_is_contiguous(self):
        chunks = make()
        chunk = chunks.alloc_chunk(cpu=0)
        iovas = [chunk.take_slice() for _ in range(64)]
        for first, second in zip(iovas, iovas[1:]):
            assert second == first + PAGE_SIZE

    def test_chunk_spans_at_most_two_ptl4_pages(self):
        """The paper's guarantee: a 256 KB descriptor chunk touches at
        most 2 unique PTcache-L3 entries."""
        chunks = make()
        for _ in range(50):
            chunk = chunks.alloc_chunk(cpu=0)
            keys = {
                ptcache_key(chunk.base_iova + i * PAGE_SIZE, 3)
                for i in range(64)
            }
            assert len(keys) <= 2
            chunks.release_pages(chunk.base_iova, 64, cpu=0)

    def test_alloc_page_slices_sequentially(self):
        chunks = make(chunk_pages=4)
        first = chunks.alloc_page(cpu=0)
        second = chunks.alloc_page(cpu=0)
        assert second == first + PAGE_SIZE

    def test_new_chunk_when_exhausted(self):
        chunks = make(chunk_pages=2)
        a = chunks.alloc_page(cpu=0)
        chunks.alloc_page(cpu=0)
        c = chunks.alloc_page(cpu=0)  # new chunk
        assert chunks.chunks_allocated == 2
        assert c != a + 2 * PAGE_SIZE or True  # new chunk may be anywhere

    def test_per_cpu_chunks_are_distinct(self):
        chunks = make(chunk_pages=4)
        a = chunks.alloc_page(cpu=0)
        b = chunks.alloc_page(cpu=1)
        assert abs(a - b) >= 4 * PAGE_SIZE


class TestRelease:
    def test_chunk_freed_only_when_fully_released(self):
        base = RbTreeIovaAllocator()
        chunks = ChunkIovaAllocator(base, num_cpus=1, chunk_pages=4)
        iovas = [chunks.alloc_page(cpu=0) for _ in range(4)]
        chunks.release_pages(iovas[0], 2, cpu=0)
        assert chunks.chunks_freed == 0
        assert base.allocated_pages == 4
        chunks.release_pages(iovas[2], 2, cpu=0)
        assert chunks.chunks_freed == 1
        assert base.allocated_pages == 0

    def test_release_crossing_chunk_boundary_rejected(self):
        """Chunks are not address-adjacent, so a release range crossing
        the boundary is split by the caller; a single spanning call is
        an error the allocator catches."""
        base = RbTreeIovaAllocator()
        chunks = ChunkIovaAllocator(base, num_cpus=1, chunk_pages=2)
        iovas = [chunks.alloc_page(cpu=0) for _ in range(4)]
        with pytest.raises(ValueError):
            chunks.release_pages(iovas[1], 2, cpu=0)
        # Split at the boundary instead: tail of chunk 1, head of chunk 2.
        chunks.release_pages(iovas[1], 1, cpu=0)
        chunks.release_pages(iovas[2], 1, cpu=0)
        assert chunks.chunks_freed == 0
        chunks.release_pages(iovas[0], 1, cpu=0)
        chunks.release_pages(iovas[3], 1, cpu=0)
        assert chunks.chunks_freed == 2

    def test_chunk_of_finds_live_chunk(self):
        chunks = make(chunk_pages=4)
        chunk = chunks.alloc_chunk(cpu=0)
        assert chunks.chunk_of(chunk.base_iova + PAGE_SIZE) is chunk
        assert chunks.chunk_of(0xDEAD000) is None

    def test_release_whole_chunk(self):
        chunks = make()
        chunk = chunks.alloc_chunk(cpu=0)
        chunks.release_chunk(chunk, cpu=0)
        assert chunks.live_chunk_count == 0
        with pytest.raises(ValueError):
            chunks.release_chunk(chunk, cpu=0)

    def test_over_release_raises(self):
        chunks = make(chunk_pages=2)
        chunk = chunks.alloc_chunk(cpu=0)
        chunks.release_pages(chunk.base_iova, 2, cpu=0)
        with pytest.raises(ValueError):
            chunks.release_pages(chunk.base_iova, 1, cpu=0)

    def test_release_unknown_iova_raises(self):
        chunks = make()
        with pytest.raises(ValueError):
            chunks.release_pages(0xDEAD000, 1, cpu=0)


class TestChunkObject:
    def test_exhausted_chunk_rejects_slicing(self):
        chunks = make(chunk_pages=1)
        chunk = chunks.alloc_chunk(cpu=0)
        chunk.take_slice()
        with pytest.raises(RuntimeError):
            chunk.take_slice()

    def test_contains(self):
        chunks = make(chunk_pages=4)
        chunk = chunks.alloc_chunk(cpu=0)
        assert chunk.contains(chunk.base_iova)
        assert chunk.contains(chunk.base_iova + 3 * PAGE_SIZE)
        assert not chunk.contains(chunk.base_iova + 4 * PAGE_SIZE)


class TestWithCachingBase:
    def test_chunks_bypass_rcache_via_caching_allocator(self):
        """F&S on top of the standard allocator stack: 64-page chunks go
        straight to the rbtree (no interface change needed)."""
        caching = CachingIovaAllocator(num_cpus=1)
        chunks = ChunkIovaAllocator(caching, num_cpus=1, chunk_pages=64)
        chunk = chunks.alloc_chunk(cpu=0)
        assert caching.cache_misses == 1
        chunks.release_pages(chunk.base_iova, 64, cpu=0)
        assert caching.cached_iova_count() == 0


def linear_find(chunks, iova):
    """The reference lookup: scan every live chunk."""
    for chunk in chunks._live_chunks.values():
        if chunk.contains(iova):
            return chunk
    return None


@given(
    chunk_pages=st.sampled_from([1, 4, 64]),
    ops=st.lists(
        st.tuples(
            st.sampled_from(["chunk", "page", "pad", "unpad", "release"]),
            st.integers(min_value=0, max_value=1 << 20),
        ),
        max_size=60,
    ),
)
@settings(max_examples=80, deadline=None)
def test_find_chunk_matches_linear_scan(chunk_pages, ops):
    base = RbTreeIovaAllocator()
    chunks = ChunkIovaAllocator(base, num_cpus=2, chunk_pages=chunk_pages)
    whole, pads = [], []
    for op, arg in ops:
        if op == "chunk":
            whole.append(chunks.alloc_chunk(cpu=arg % 2))
        elif op == "page":
            chunks.alloc_page(cpu=arg % 2)
        elif op == "pad":
            # Odd-sized ranges knock later chunk bases off the stride.
            pages = 1 + arg % 7
            pads.append((base.alloc(pages), pages))
        elif op == "unpad" and pads:
            base.free(*pads.pop(arg % len(pads)))
        elif op == "release" and whole:
            chunks.release_chunk(whole.pop(arg % len(whole)))
        for chunk in list(chunks._live_chunks.values()):
            span = chunk.pages * PAGE_SIZE
            for iova in (
                chunk.base_iova - 1,
                chunk.base_iova,
                chunk.base_iova + arg % span,
                chunk.base_iova + span - 1,
                chunk.base_iova + span,
            ):
                assert chunks.chunk_of(iova) is linear_find(chunks, iova)
