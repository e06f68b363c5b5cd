"""Per-layer microbenchmarks: nanoseconds per operation.

    PYTHONPATH=src python bench/micro.py [--seed N] [--json]

Each benchmark times one public operation of one layer with
``timeit`` (median of five repeats) on inputs built from ``--seed``:

* ``micro.iommu_translate_hit_ns``  -- ``Iommu.translate`` hitting the
  IOTLB (two pages alternate, so the one-entry replay never fires);
* ``micro.iommu_translate_miss_ns`` -- ``Iommu.translate`` walking the
  page table right after an unmap + invalidation + remap of the page;
* ``micro.iova_rcache_ns``          -- one ``CachingIovaAllocator``
  alloc+free pair served by the per-CPU magazines;
* ``micro.iova_rbtree_ns``          -- one ``RbTreeIovaAllocator``
  alloc+free pair on a tree holding 98,304 live ranges, the count the
  app workloads age their allocators with;
* ``micro.sim_event_ns``            -- ``Simulator.schedule_after`` plus
  the dispatch of a no-op callback;
* ``micro.locality_ns_per_entry``   -- ``summarize_locality`` per
  allocation-trace entry.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import time
import timeit

from repro.analysis.locality import summarize_locality
from repro.iommu import Iommu
from repro.iommu.addr import PAGE_SIZE
from repro.iova.allocator import RbTreeIovaAllocator
from repro.iova.caching import CachingIovaAllocator
from repro.sim import Simulator

AGED_RANGES = 98_304
REPEATS = 5


def _median_ns(stmt, number: int, per_call: int = 1) -> float:
    runs = timeit.Timer(stmt).repeat(repeat=REPEATS, number=number)
    return statistics.median(runs) / (number * per_call) * 1e9


def translate_hit_ns(rng: random.Random) -> float:
    iommu = Iommu()
    first, second = (p * PAGE_SIZE for p in rng.sample(range(1 << 20), 2))
    iommu.map_page(first, 100)
    iommu.map_page(second, 200)
    translate = iommu.translate
    translate(first, "rx")
    translate(second, "rx")

    def pair():
        translate(first, "rx")
        translate(second, "rx")

    return _median_ns(pair, 20_000, per_call=2)


def translate_miss_ns(rng: random.Random) -> float:
    iommu = Iommu()
    iova = rng.randrange(1 << 20) * PAGE_SIZE
    queue = iommu.invalidation_queue
    clock = time.perf_counter
    iterations = 2_000

    def cycle_ns() -> float:
        spent = 0.0
        for _ in range(iterations):
            iommu.unmap_range(iova, PAGE_SIZE)
            queue.invalidate_range(iova, PAGE_SIZE, preserve_ptcache=False)
            iommu.map_page(iova, 100)
            start = clock()
            iommu.translate(iova, "rx")
            spent += clock() - start
        return spent

    def clock_ns() -> float:
        spent = 0.0
        for _ in range(iterations):
            start = clock()
            spent += clock() - start
        return spent

    iommu.map_page(iova, 100)
    miss = statistics.median(cycle_ns() for _ in range(REPEATS))
    overhead = statistics.median(clock_ns() for _ in range(REPEATS))
    return (miss - overhead) / iterations * 1e9


def rcache_pair_ns(rng: random.Random) -> float:
    allocator = CachingIovaAllocator(num_cpus=1)
    warm = [allocator.alloc(1) for _ in range(256)]
    for iova in warm:
        allocator.free(iova, 1)
    alloc, free = allocator.alloc, allocator.free

    def pair():
        free(alloc(1), 1)

    return _median_ns(pair, 20_000)


def rbtree_pair_ns(rng: random.Random) -> float:
    allocator = RbTreeIovaAllocator()
    live = [allocator.alloc(1) for _ in range(AGED_RANGES + 1024)]
    # Free a scattered 1024 so the tree has holes, as aging leaves it.
    for iova in rng.sample(live, 1024):
        allocator.free(iova, 1)
    alloc, free = allocator.alloc, allocator.free

    def pair():
        free(alloc(1), 1)

    return _median_ns(pair, 5_000)


def sim_event_ns(rng: random.Random) -> float:
    events = 20_000
    delays = [rng.uniform(0.0, 1_000.0) for _ in range(events)]

    def noop() -> None:
        pass

    def run():
        sim = Simulator()
        schedule = sim.schedule_after
        for delay in delays:
            schedule(delay, noop)
        sim.run()

    return _median_ns(run, 1, per_call=events)


def locality_ns_per_entry(rng: random.Random) -> float:
    # 20,000 single-page allocations spread over 64 2 MB regions.
    base = 0x4000_0000
    trace = [
        (base + rng.randrange(64 * 512) * PAGE_SIZE, 1) for _ in range(20_000)
    ]
    return _median_ns(lambda: summarize_locality(trace), 1, len(trace))


BENCHMARKS = {
    "micro.iommu_translate_hit_ns": translate_hit_ns,
    "micro.iommu_translate_miss_ns": translate_miss_ns,
    "micro.iova_rcache_ns": rcache_pair_ns,
    "micro.iova_rbtree_ns": rbtree_pair_ns,
    "micro.sim_event_ns": sim_event_ns,
    "micro.locality_ns_per_entry": locality_ns_per_entry,
}


def run_micro(seed: int) -> dict[str, float]:
    rng = random.Random(seed)
    return {name: bench(rng) for name, bench in BENCHMARKS.items()}


def main() -> None:
    parser = argparse.ArgumentParser(prog="bench/micro.py")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--json", action="store_true", help="print JSON")
    args = parser.parse_args()
    results = run_micro(args.seed)
    if args.json:
        print(json.dumps(results))
        return
    for name, value in results.items():
        print(f"{name:34s} {value:12.1f} ns")


if __name__ == "__main__":
    main()
