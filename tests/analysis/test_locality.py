"""Unit tests for the PTcache-L3 reuse-distance analysis."""

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis import (
    INFINITE,
    LocalitySummary,
    l3_key_stream,
    reuse_distances,
    summarize_locality,
)
from repro.iommu.addr import PAGE_SIZE, PTL4_PAGE_SIZE, ptcache_key


def naive_distances(keys):
    """O(n^2) reference: distinct keys between two uses of a key."""
    distances = []
    for position, key in enumerate(keys):
        previous = None
        for back in range(position - 1, -1, -1):
            if keys[back] == key:
                previous = back
                break
        if previous is None:
            distances.append(INFINITE)
        else:
            distances.append(len(set(keys[previous + 1 : position])))
    return distances


def naive_summary(trace):
    """Reference summary: per-page keys, naive distances, plain stats."""
    keys = [
        ptcache_key(iova + index * PAGE_SIZE, 3)
        for iova, pages in trace
        for index in range(pages)
    ]
    distances = naive_distances(keys)
    warm = sorted(d for d in distances if d != INFINITE)
    if not warm:
        return LocalitySummary(len(distances), len(distances), 0.0, 0.0, 0, 0.0, 0.0)
    return LocalitySummary(
        accesses=len(distances),
        cold_accesses=len(distances) - len(warm),
        mean_distance=sum(warm) / len(warm),
        p95_distance=float(warm[min(len(warm) - 1, int(0.95 * len(warm)))]),
        max_distance=warm[-1],
        fraction_above_64=sum(1 for d in warm if d > 64) / len(warm),
        fraction_above_128=sum(1 for d in warm if d > 128) / len(warm),
    )


def scattered_trace():
    """Linux strict-like: single pages scattered over 160 2 MB regions."""
    rng = random.Random(12)
    base = 0x7000_0000_0000
    return [
        (base + rng.randrange(160 * 512) * PAGE_SIZE, 1) for _ in range(3000)
    ]


def chunk_trace():
    """F&S-like: 64-page chunks recycled from a pool of 96 slots, 16
    pages off the 2 MB grid so every eighth chunk straddles two
    regions."""
    rng = random.Random(5)
    base = 0x7000_0000_0000 + 16 * PAGE_SIZE
    return [
        (base + rng.randrange(96) * 64 * PAGE_SIZE, 64) for _ in range(400)
    ]


# Runs of 1-64 repeats of a key, as page runs inside one chunk/region.
run_heavy_keys = st.lists(
    st.tuples(st.integers(0, 40), st.integers(1, 64)), max_size=60
).map(lambda runs: [key for key, repeat in runs for _ in range(repeat)])

# More than 128 distinct keys in order, then revisited in a shuffled
# order: key 0's reuse alone sees every other key, so distances cross
# both the 64 and the 128 thresholds.
many_distinct_keys = st.integers(130, 260).flatmap(
    lambda distinct: st.permutations(range(distinct)).map(
        lambda revisit: list(range(distinct)) + revisit
    )
)

# (2 MB region, page offset, pages): single pages and chunks, some of
# them crossing a region boundary.
allocations = st.lists(
    st.tuples(st.integers(0, 200), st.integers(0, 511), st.integers(1, 64)),
    max_size=120,
).map(
    lambda rows: [
        (region * PTL4_PAGE_SIZE + offset * PAGE_SIZE, pages)
        for region, offset, pages in rows
    ]
)


class TestKeyStream:
    def test_pages_in_same_region_share_key(self):
        trace = [(0, 1), (PAGE_SIZE, 1)]
        keys = l3_key_stream(trace)
        assert keys[0] == keys[1]

    def test_chunk_expansion(self):
        trace = [(0, 3)]
        assert len(l3_key_stream(trace)) == 3

    def test_region_boundary_changes_key(self):
        trace = [(PTL4_PAGE_SIZE - PAGE_SIZE, 2)]
        keys = l3_key_stream(trace)
        assert keys[0] != keys[1]


class TestReuseDistances:
    def test_first_access_is_cold(self):
        assert reuse_distances([1]) == [INFINITE]

    def test_immediate_reuse_distance_zero(self):
        assert reuse_distances([1, 1]) == [INFINITE, 0]

    def test_classic_stack_distance(self):
        # a b c a : 'a' reused after 2 distinct other keys.
        distances = reuse_distances(["a", "b", "c", "a"])
        assert distances == [INFINITE, INFINITE, INFINITE, 2]

    def test_duplicates_between_count_once(self):
        # a b b a : only one distinct key between the two a's.
        distances = reuse_distances(["a", "b", "b", "a"])
        assert distances[-1] == 1

    def test_interleaved_pattern(self):
        distances = reuse_distances(["a", "b", "a", "b"])
        assert distances == [INFINITE, INFINITE, 1, 1]

    def test_matches_naive_computation(self):
        rng = random.Random(3)
        keys = [rng.randint(0, 20) for _ in range(300)]
        assert reuse_distances(keys) == naive_distances(keys)

    @settings(max_examples=60, deadline=None)
    @given(run_heavy_keys)
    @example([])
    def test_run_heavy_streams_match_naive(self, keys):
        assert reuse_distances(keys) == naive_distances(keys)

    @settings(max_examples=10, deadline=None)
    @given(many_distinct_keys)
    def test_many_distinct_keys_match_naive(self, keys):
        distances = reuse_distances(keys)
        assert distances == naive_distances(keys)
        assert max(distances) > 128

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.sampled_from(["a", "b", "c", "d", "e", "f"]), max_size=80))
    def test_string_keys_match_naive(self, keys):
        assert reuse_distances(keys) == naive_distances(keys)


class TestSummary:
    def test_sequential_chunk_trace_is_perfectly_local(self):
        # Like F&S: 64-page chunks, each fully inside <= 2 regions.
        trace = [(i * 64 * PAGE_SIZE, 64) for i in range(10)]
        summary = summarize_locality(trace)
        assert summary.mean_distance < 0.5
        assert summary.fraction_above_64 == 0.0

    def test_scattered_trace_exceeds_cache_size(self):
        # 100 regions round-robin: every reuse sees 99 distinct keys.
        trace = []
        for repeat in range(3):
            for region in range(100):
                trace.append((region * PTL4_PAGE_SIZE, 1))
        summary = summarize_locality(trace)
        assert summary.fraction_above_64 > 0.5
        assert summary.max_distance == 99

    def test_empty_trace(self):
        summary = summarize_locality([])
        assert summary.accesses == 0
        assert summary.mean_distance == 0.0

    def test_cold_accesses_counted(self):
        trace = [(i * PTL4_PAGE_SIZE, 1) for i in range(5)]
        summary = summarize_locality(trace)
        assert summary.cold_accesses == 5

    @settings(max_examples=40, deadline=None)
    @given(allocations)
    def test_summary_matches_naive(self, trace):
        assert summarize_locality(trace) == naive_summary(trace)


class TestGoldenSummaries:
    """Summaries pinned from the earlier Fenwick-tree implementation."""

    def test_strict_like_scattered_trace(self):
        assert summarize_locality(scattered_trace()) == LocalitySummary(
            accesses=3000,
            cold_accesses=160,
            mean_distance=78.86056338028169,
            p95_distance=150.0,
            max_distance=159,
            fraction_above_64=0.5855633802816902,
            fraction_above_128=0.1823943661971831,
        )

    def test_fns_chunk_trace(self):
        assert summarize_locality(chunk_trace()) == LocalitySummary(
            accesses=25600,
            cold_accesses=13,
            mean_distance=0.09504826669793254,
            p95_distance=0.0,
            max_distance=12,
            fraction_above_64=0.0,
            fraction_above_128=0.0,
        )
