"""Closed-form allocator aging against the per-op replay it replaces.

``CachingIovaAllocator.age`` computes the state a long alloc/free
stream leaves behind.  The reference below runs that stream one
operation at a time; every observable piece of state, a follow-on
workload and the monitor's event trace must come out the same.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.context import using
from repro.iova import MAG_SIZE, CachingIovaAllocator
from repro.iova.caching import DEPOT_MAX_MAGS
from repro.sim.rng import SeededRng
from repro.verify import InvariantMonitor

# One core fills its two magazines (2 x MAG_SIZE frees), then pushes a
# magazine to the depot every MAG_SIZE frees; the push that takes the
# depot past DEPOT_MAX_MAGS flushes the oldest magazine to the rbtree.
FIRST_FLUSH_ONE_CORE = 2 * MAG_SIZE + 1 + DEPOT_MAX_MAGS * MAG_SIZE


def replay(allocator, count, rng):
    """The per-op aging stream (what ``Host`` ran before closed form)."""
    cores = allocator.num_cpus
    iovas = [allocator.alloc(1, cpu=index % cores) for index in range(count)]
    rng.shuffle(iovas)
    for iova in iovas:
        allocator.free(iova, 1, cpu=rng.randint(0, cores - 1))
    if allocator.trace is not None:
        allocator.trace.clear()


def state(allocator):
    rbtree = allocator.rbtree
    rbtree.tree.check_invariants()
    return {
        "ranges": list(rbtree.tree),
        "cached": rbtree._cached,
        "magazines": [
            [(list(rc.loaded.pfns), list(rc.prev.pfns)) for rc in per_cpu]
            for per_cpu in allocator._cpu_rcaches
        ],
        "depot": [[list(mag.pfns) for mag in depot] for depot in allocator._depot],
        "counters": (
            allocator.cache_hits,
            allocator.cache_misses,
            allocator.alloc_count,
            allocator.free_count,
            rbtree.alloc_count,
            rbtree.free_count,
            rbtree.allocated_pages,
        ),
        # Item lists, so dict key order is compared too.
        "rcache_ns": list(allocator.cpu_ns_by_core.items()),
        "rbtree_ns": list(rbtree.cpu_ns_by_core.items()),
    }


def follow_on(allocator, seed, ops=300):
    """A mixed workload after aging; returns everything it observed."""
    rng = SeededRng(seed, "follow-on")
    cores = allocator.num_cpus
    live = []
    seen = []
    for _ in range(ops):
        cpu = rng.randint(0, cores - 1)
        if live and rng.random() < 0.45:
            iova, pages = live.pop(rng.randint(0, len(live) - 1))
            allocator.free(iova, pages, cpu=cpu)
            seen.append(("free", iova, pages, cpu))
        else:
            pages = rng.choice([1, 1, 1, 2, 4, 64])
            align = 64 if pages == 64 and rng.random() < 0.5 else 1
            iova = allocator.alloc(pages, cpu=cpu, align_pages=align)
            live.append((iova, pages))
            seen.append(("alloc", iova, pages, cpu))
    return seen, state(allocator)


def aged_pair(count, cores, seed):
    reference = CachingIovaAllocator(num_cpus=cores, trace=[])
    replay(reference, count, SeededRng(seed, "allocator-aging"))
    closed = CachingIovaAllocator(num_cpus=cores, trace=[])
    closed.age(count, SeededRng(seed, "allocator-aging"))
    return reference, closed


def assert_same(count, cores, seed):
    reference, closed = aged_pair(count, cores, seed)
    assert state(closed) == state(reference)
    assert closed.trace == reference.trace == []
    assert follow_on(closed, seed) == follow_on(reference, seed)


@given(
    count=st.one_of(
        st.sampled_from([0, 1, MAG_SIZE - 1, MAG_SIZE, MAG_SIZE + 1]),
        st.integers(min_value=0, max_value=2 * MAG_SIZE + 2),
        st.integers(
            min_value=FIRST_FLUSH_ONE_CORE - 2,
            max_value=FIRST_FLUSH_ONE_CORE + 2 * MAG_SIZE,
        ),
    ),
    cores=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=40, deadline=None)
def test_closed_form_matches_replay(count, cores, seed):
    assert_same(count, cores, seed)


@pytest.mark.parametrize(
    "count",
    [FIRST_FLUSH_ONE_CORE - 1, FIRST_FLUSH_ONE_CORE, FIRST_FLUSH_ONE_CORE + 1],
)
def test_depot_overflow_boundary_one_core(count):
    reference, closed = aged_pair(count, 1, 7)
    flushed = 0 if count < FIRST_FLUSH_ONE_CORE else MAG_SIZE
    assert reference.rbtree.free_count == flushed
    assert state(closed) == state(reference)


@pytest.mark.parametrize(
    "count, cores, seed",
    [(16384, 4, 42), (16384, 1, 3), (98304, 8, 42), (98304, 3, 11)],
)
def test_host_sized_agings_match_replay(count, cores, seed):
    assert_same(count, cores, seed)


class AscendingRng:
    """Frees the burst lowest pfn first, all on cpu 0."""

    def shuffle(self, seq):
        seq.reverse()

    def randint(self, low, high):
        return low

    def shuffle_then_randints(self, seq, low, high, count):
        self.shuffle(seq)
        return [self.randint(low, high) for _ in range(count)]


def test_flushing_the_cached_node_moves_it_to_its_successor():
    # Each flushed pfn is the rbtree's cached scan node at that moment,
    # which a random stream almost never produces.
    count = FIRST_FLUSH_ONE_CORE + MAG_SIZE
    reference = CachingIovaAllocator(num_cpus=1)
    replay(reference, count, AscendingRng())
    closed = CachingIovaAllocator(num_cpus=1)
    closed.age(count, AscendingRng())
    # The first MAG_SIZE pfns stay parked in the ``prev`` magazine; the
    # next two magazines are flushed, lowest pfn first.
    low = reference.rbtree.limit_pfn - count + 1
    assert reference.rbtree.free_count == 2 * MAG_SIZE
    assert reference.rbtree._cached == low + 3 * MAG_SIZE
    assert state(closed) == state(reference)


@pytest.mark.parametrize("cores", [1, 4])
def test_monitor_sees_the_replay_event_trace(cores):
    def events(age):
        monitor = InvariantMonitor(trace_limit=10**6)
        with using(monitor=monitor):
            allocator = CachingIovaAllocator(num_cpus=cores)
            owners = {id(allocator): "rcache", id(allocator.rbtree): "rbtree"}
            age(allocator)
            follow_on(allocator, 5, ops=100)
        assert monitor.ok
        return [
            (type(e).__name__, e.iova, e.pages, e.cpu, e.layer, owners[e.owner])
            for e in monitor.trace()
        ]

    # Enough frees that the depot overflows whatever the core draws.
    count = (2 * cores + DEPOT_MAX_MAGS + 8) * MAG_SIZE
    replayed = events(lambda a: replay(a, count, SeededRng(9, "aging")))
    closed = events(lambda a: a.age(count, SeededRng(9, "aging")))
    assert closed == replayed
    flushes = [e for e in closed if e[0] == "IovaFreeEvent" and e[4] == "rbtree"]
    assert len(flushes) >= MAG_SIZE  # the depot flush path was exercised


def test_only_a_fresh_allocator_can_be_aged():
    allocator = CachingIovaAllocator(num_cpus=2)
    allocator.alloc(1)
    with pytest.raises(ValueError, match="fresh"):
        allocator.age(10, SeededRng(1, "aging"))
