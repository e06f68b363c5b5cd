"""Golden digests of the IOVA layer, computed on the red-black tree.

The allocator's slow path once kept its ranges in a pointer red-black
tree; it now keeps them in :class:`repro.iova.IovaRangeIndex`.  These
digests were computed with the tree in place, so they pin what the
replacement must reproduce exactly:

* the aged allocator state for the host sizes fig7 (16384 IOVAs, 5
  cores), fig10 (16384 IOVAs, 2/4/8 cores) and fig12 (98304 IOVAs, 8
  cores) use: ranges, cached scan node, magazines, depot, counters and
  per-core cost tallies, dict key order included;
* the ``(iova, charged ns)`` sequence of a seeded alloc/free stream on
  an aged allocator whose space below the aged block runs out, so the
  stream covers 1-, 2-, 3- and 64-page requests, 64- and 512-aligned
  ones, retries from the top, exhaustion, and frees above the cached
  node.
"""

import hashlib
import json
import random

import pytest

from repro.iova import CachingIovaAllocator, IovaExhaustedError
from repro.sim.rng import SeededRng

AGED_STATES = {
    (16384, 5): "5a6fe17cb7afb34fe71848edd6406da9f33dc90e79091d238c7ef6dfd130d0f7",
    (16384, 2): "5f8c5faeb37114e23ab5c144655c87c607da45c72de4cdb4a526f42c8f4a2cb7",
    (16384, 4): "abce33882229bdc21d9928736e94d8c9155c684a696ea7b66167232b92a0d59f",
    (16384, 8): "d3f10d1ad2019325925c547b495e67e55bdddd20686fd67e1197e312f96d0dc2",
    (98304, 8): "54f75b97a42be0c47dc334f1eaa27a2674340efa7790aaf05159e32ae9af108b",
}
CHARGED_STREAM = "5002e510c27930ad17a7b89c2b1f507373af2e98101c5eee69a32339d4d9546e"

# (pages, align_pages) requests of the stream, drawn uniformly.
REQUESTS = [
    (1, 1), (1, 1), (1, 1), (2, 1), (3, 1), (64, 1), (64, 1), (64, 64),
    (512, 512),
]


def digest(value):
    text = json.dumps(value, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def aged_state(allocator):
    rbtree = allocator.rbtree
    return {
        "ranges": [list(pfns) for pfns in rbtree.tree],
        "cached": rbtree._cached,
        "magazines": [
            [[list(rc.loaded.pfns), list(rc.prev.pfns)] for rc in per_cpu]
            for per_cpu in allocator._cpu_rcaches
        ],
        "depot": [
            [list(mag.pfns) for mag in depot] for depot in allocator._depot
        ],
        "counters": [
            allocator.cache_hits,
            allocator.cache_misses,
            allocator.alloc_count,
            allocator.free_count,
            rbtree.alloc_count,
            rbtree.free_count,
            rbtree.allocated_pages,
        ],
        "rcache_ns": [list(item) for item in allocator.cpu_ns_by_core.items()],
        "rbtree_ns": [list(item) for item in rbtree.cpu_ns_by_core.items()],
    }


@pytest.mark.parametrize("count, cores", sorted(AGED_STATES))
def test_aged_state_is_pinned(count, cores):
    allocator = CachingIovaAllocator(num_cpus=cores)
    allocator.age(count, SeededRng(42, "allocator-aging"))
    allocator.rbtree.tree.check_invariants()
    assert digest(aged_state(allocator)) == AGED_STATES[count, cores]


def charged_stream(count=16384, cores=4, below=3000, ops=4000, seed=7):
    """Run the stream; returns its ``[iova, ns]`` pairs and coverage."""
    allocator = CachingIovaAllocator(
        num_cpus=cores, limit_pfn=count + below - 1
    )
    allocator.age(count, SeededRng(seed, "allocator-aging"))
    rbtree = allocator.rbtree
    coverage = dict.fromkeys(
        ("retries", "frees_above_cached", "exhausted", "aligned_512"), 0
    )
    scan, tree_free = rbtree._scan_down, rbtree.free

    def spy_scan(start, pages, align_pages=1):
        if start is None and rbtree._cached is not None:
            coverage["retries"] += 1
        return scan(start, pages, align_pages)

    def spy_free(iova, pages, cpu=0):
        if rbtree._cached is not None and iova >> 12 > rbtree._cached:
            coverage["frees_above_cached"] += 1
        tree_free(iova, pages, cpu=cpu)

    rbtree._scan_down, rbtree.free = spy_scan, spy_free

    def spent(cpu):
        return allocator.cpu_ns_by_core.get(cpu, 0.0) + rbtree.cpu_ns_by_core.get(
            cpu, 0.0
        )

    rng = random.Random(seed)
    live, seen = [], []
    for _ in range(ops):
        cpu = rng.randrange(cores)
        before = spent(cpu)
        if live and rng.random() < 0.4:
            iova, pages = live.pop(rng.randrange(len(live)))
            allocator.free(iova, pages, cpu=cpu)
        else:
            pages, align = rng.choice(REQUESTS)
            try:
                iova = allocator.alloc(pages, cpu=cpu, align_pages=align)
            except IovaExhaustedError:
                coverage["exhausted"] += 1
                iova = None
            else:
                live.append((iova, pages))
                coverage["aligned_512"] += align == 512
        seen.append([iova, spent(cpu) - before])
    rbtree.tree.check_invariants()
    return seen, coverage


def test_charged_stream_is_pinned():
    seen, coverage = charged_stream()
    assert all(coverage.values()), coverage
    assert digest(seen) == CHARGED_STREAM
