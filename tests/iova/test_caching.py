"""Unit tests for the per-CPU magazine/depot IOVA cache."""

import pytest

from repro.iommu.addr import PAGE_SIZE
from repro.iova import MAG_SIZE, CachingIovaAllocator
from repro.iova.caching import CACHE_HIT_NS


def make(num_cpus=2, **kwargs):
    return CachingIovaAllocator(num_cpus=num_cpus, **kwargs)


class TestFastPath:
    def test_freed_iova_recycled_lifo_on_same_cpu(self):
        alloc = make()
        first = alloc.alloc(1, cpu=0)
        second = alloc.alloc(1, cpu=0)
        alloc.free(first, 1, cpu=0)
        alloc.free(second, 1, cpu=0)
        # LIFO: the most recently freed comes back first.
        assert alloc.alloc(1, cpu=0) == second
        assert alloc.alloc(1, cpu=0) == first

    def test_cache_hit_vs_miss_accounting(self):
        alloc = make()
        iova = alloc.alloc(1, cpu=0)
        assert alloc.cache_misses == 1
        alloc.free(iova, 1, cpu=0)
        alloc.alloc(1, cpu=0)
        assert alloc.cache_hits == 1

    def test_per_cpu_isolation(self):
        """An IOVA freed on cpu 0 is not visible to cpu 1's cache."""
        alloc = make()
        iova = alloc.alloc(1, cpu=0)
        alloc.free(iova, 1, cpu=0)
        other = alloc.alloc(1, cpu=1)
        assert other != iova
        assert alloc.cache_misses == 2

    def test_cached_iovas_stay_allocated_in_rbtree(self):
        """Like Linux: parked IOVAs keep their tree ranges, so fresh
        tree allocations cannot reuse that address space — circulating
        extent exceeds the live working set."""
        alloc = make()
        iova = alloc.alloc(1, cpu=0)
        alloc.free(iova, 1, cpu=0)
        assert alloc.rbtree.is_allocated(iova)
        fresh = alloc.rbtree.alloc(1)
        assert fresh != iova

    def test_cheap_fast_path_cost(self):
        alloc = make()
        iova = alloc.alloc(1, cpu=0)  # slow path
        slow_cost = alloc.total_cpu_ns
        alloc.free(iova, 1, cpu=0)
        before = alloc.total_cpu_ns
        alloc.alloc(1, cpu=0)  # fast path
        fast_cost = alloc.total_cpu_ns - before
        assert fast_cost < slow_cost / 10


class TestSizeClasses:
    def test_large_allocations_bypass_cache(self):
        """64-page (F&S chunk sized) requests skip the rcache, exactly
        like Linux (max cached order is 32 pages)."""
        alloc = make()
        iova = alloc.alloc(64, cpu=0)
        alloc.free(iova, 64, cpu=0)
        assert alloc.cached_iova_count() == 0
        assert not alloc.rbtree.is_allocated(iova)

    def test_non_power_of_two_bypasses_cache(self):
        alloc = make()
        iova = alloc.alloc(3, cpu=0)
        alloc.free(iova, 3, cpu=0)
        assert alloc.cached_iova_count() == 0

    def test_different_orders_use_different_magazines(self):
        alloc = make()
        small = alloc.alloc(1, cpu=0)
        big = alloc.alloc(2, cpu=0)
        alloc.free(small, 1, cpu=0)
        alloc.free(big, 2, cpu=0)
        # A size-2 alloc must not return the size-1 IOVA.
        assert alloc.alloc(2, cpu=0) == big
        assert alloc.alloc(1, cpu=0) == small


class TestMagazinesAndDepot:
    def test_magazine_overflow_goes_to_depot(self):
        alloc = make(num_cpus=1)
        iovas = [alloc.alloc(1, cpu=0) for _ in range(2 * MAG_SIZE + 1)]
        for iova in iovas:
            alloc.free(iova, 1, cpu=0)
        assert alloc.depot_magazines(0) == 1
        assert alloc.cached_iova_count() == 2 * MAG_SIZE + 1

    def test_depot_refills_empty_cpu_cache(self):
        alloc = make(num_cpus=2)
        iovas = [alloc.alloc(1, cpu=0) for _ in range(2 * MAG_SIZE + 1)]
        for iova in iovas:
            alloc.free(iova, 1, cpu=0)
        # cpu 1 has an empty cache but can pull the depot magazine.
        misses_before = alloc.cache_misses
        alloc.alloc(1, cpu=1)
        assert alloc.cache_misses == misses_before
        assert alloc.depot_magazines(0) == 0

    def test_depot_overflow_finally_frees_to_tree(self):
        alloc = make(num_cpus=1)
        # Enough frees to overflow the depot (32 magazines).
        count = (2 + 33) * MAG_SIZE + 1
        iovas = [alloc.alloc(1, cpu=0) for _ in range(count)]
        pages_before_free = alloc.rbtree.allocated_pages
        for iova in iovas:
            alloc.free(iova, 1, cpu=0)
        assert alloc.rbtree.allocated_pages < pages_before_free

    def test_cpu_bounds_checked(self):
        alloc = make(num_cpus=2)
        with pytest.raises(ValueError):
            alloc.alloc(1, cpu=2)
        with pytest.raises(ValueError):
            alloc.free(0, 1, cpu=-1)


class TestLocalityDegradation:
    def test_rx_tx_interleaving_scatters_allocation_order(self):
        """The §2.2 phenomenon: interleaved alloc/free from the Rx and
        Tx datapaths on one core degrades the sequential locality of
        allocated IOVAs over time.

        The churn pattern mimics the datapath: descriptor completions
        free 16-page batches, ACK (Tx) IOVAs are allocated per round
        but freed a few rounds *later* (Tx completion lags), and
        replenishment re-allocates the batch.  Delayed Tx frees land in
        the middle of later Rx batches on the LIFO magazine, shuffling
        the allocation order."""
        from collections import deque

        def run_churn(acks_per_round):
            trace: list[tuple[int, int]] = []
            alloc = make(num_cpus=1, trace=trace)
            ring = deque(alloc.alloc(1, cpu=0) for _ in range(128))
            tx_in_flight: deque[int] = deque()
            for _ in range(60):
                # Descriptor completion: free a 16-page batch.
                for _ in range(16):
                    alloc.free(ring.popleft(), 1, cpu=0)
                # ACKs allocated now, freed several rounds later
                # (Tx completion lags Rx processing).
                for _ in range(acks_per_round):
                    tx_in_flight.append(alloc.alloc(1, cpu=0))
                while len(tx_in_flight) > 5 * acks_per_round:
                    alloc.free(tx_in_flight.popleft(), 1, cpu=0)
                # Replenish the descriptor.
                for _ in range(16):
                    ring.append(alloc.alloc(1, cpu=0))
            tail = [iova for iova, _ in trace[-400:]]
            deltas = [
                abs(b - a) // PAGE_SIZE for a, b in zip(tail, tail[1:])
            ]
            # Long jumps = breaks in sequential locality.
            return sum(1 for d in deltas if d > 4)

        no_tx_jumps = run_churn(acks_per_round=0)
        with_tx_jumps = run_churn(acks_per_round=4)
        # Tx interference strictly degrades allocation-order locality.
        assert with_tx_jumps > 2 * max(no_tx_jumps, 1)


class TestSlowPathCharging:
    def test_slow_path_charges_rbtree_not_rcache(self):
        # Regression: the slow path used to plant a spurious 0.0 entry
        # in the rcache's own per-core ledger on every miss.
        alloc = CachingIovaAllocator(num_cpus=2)
        alloc.alloc(1, cpu=1)  # cold cache -> rbtree
        assert alloc.cache_misses == 1
        assert alloc.cpu_ns_by_core == {}
        assert alloc.rbtree.cpu_ns_by_core[1] > 0.0
        assert alloc.total_cpu_ns == alloc.rbtree.total_cpu_ns

    def test_fast_path_still_charges_rcache(self):
        alloc = CachingIovaAllocator(num_cpus=1)
        iova = alloc.alloc(1)
        alloc.free(iova, 1)
        tree_before = alloc.rbtree.total_cpu_ns
        own_before = alloc.cpu_ns_by_core.get(0, 0.0)
        alloc.alloc(1)  # magazine hit
        assert alloc.cpu_ns_by_core[0] - own_before == CACHE_HIT_NS
        assert alloc.rbtree.total_cpu_ns == tree_before
