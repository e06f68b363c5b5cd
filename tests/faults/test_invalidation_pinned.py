"""Pinned behaviour of the drivers' invalidation path under queue faults.

Every queued invalidation a strict driver issues goes through one retry
policy (advance over the confirmed prefix, back off, fall back to a
global flush), and deferred mode's batches go through the
register-based flush.  This file pins what that path does under each
invalidation fault kind, with numbers recorded from the implementation
that returned a status object per descriptor:

* twelve micro-scale Rx cells, one per driver (strict, F&S, deferred)
  and fault kind (dropped, partial, delayed completions and a wedged
  queue with the reset protocol on): the drivers' retry and degraded
  flush counts, the queue's fault counters and CPU time, the IOMMU's
  invalidation request counts, deferred mode's flush count and
  threshold, and a digest of the fault timeline;
* a single-page partial completion, which completes zero bytes: the
  queue counts it as partial (not dropped) and the driver retries it.
"""

import hashlib

import pytest

from repro.context import using
from repro.faults import FaultPlan, FaultRuntime, FaultSpec
from repro.host.config import HostConfig
from repro.host.testbed import Testbed
from repro.iommu import Iommu, IommuConfig
from repro.iommu.addr import PAGE_SIZE
from repro.mem.physmem import PhysicalMemory
from repro.protection import StrictFamilyDriver

WARMUP_NS = 800_000.0
MEASURE_NS = 1_500_000.0
HORIZON_NS = WARMUP_NS + MEASURE_NS

# Transient kinds fire on a share of the descriptors from mid-warm-up
# to the end of the run; the wedge latches once inside a short window
# and stays latched until the recovery manager re-arms the queue.
SPECS = {
    "drop-completion": FaultSpec(
        "invalidation", "drop-completion", 400_000.0, HORIZON_NS,
        probability=0.25,
    ),
    "partial-completion": FaultSpec(
        "invalidation", "partial-completion", 400_000.0, HORIZON_NS,
        probability=0.25,
    ),
    "delay-completion": FaultSpec(
        "invalidation", "delay-completion", 400_000.0, HORIZON_NS,
        probability=0.5, magnitude=2_000.0,
    ),
    "wedge-invq": FaultSpec(
        "invalidation", "wedge-invq", 1_000_000.0, 1_400_000.0,
    ),
}

# (mode, kind) -> ``driver``: invalidation retries, degraded flushes;
# ``queue``: dropped, partial, delayed, rearms, total CPU ns;
# ``iommu``: invalidation requests, PTcache invalidation requests;
# ``deferred``: flushes, flush threshold (deferred mode only);
# ``timeline``: sha256 of the fault timeline text.
PINNED = {
    ("strict", "drop-completion"): {
        "driver": [1115, 14],
        "queue": [1115, 0, 0, 0, 2511250.0],
        "iommu": [5585, 4470],
        "timeline": "30f3ac704cab107b22b59cd783a4a0c8"
        "992e0343906a4d127c905eb7eb403788",
    },
    ("strict", "partial-completion"): {
        "driver": [775, 10],
        "queue": [0, 775, 0, 0, 1031000.0],
        "iommu": [4124, 3349],
        "timeline": "b353cd83d4b0ca91692e1439fea41bd1"
        "4803a1c4784b2ad934f0a66ab870351c",
    },
    ("strict", "delay-completion"): {
        "driver": [0, 0],
        "queue": [0, 0, 1076, 0, 2947500.0],
        "iommu": [3182, 3182],
        "timeline": "444fa8a238826adaf11ba51abdb90ce1"
        "6057a22d61def8749b6df8dc9ae205b9",
    },
    ("strict", "wedge-invq"): {
        "driver": [836, 209],
        "queue": [836, 0, 0, 1, 2190500.0],
        "iommu": [5417, 4581],
        "timeline": "5d4e76e414cbf1ac469cf2184cfd6ecd"
        "fd81022072005a70764d47e18a7db742",
    },
    ("fns", "drop-completion"): {
        "driver": [214, 2],
        "queue": [214, 0, 0, 0, 474500.0],
        "iommu": [1042, 2],
        "timeline": "b499084eb2c73b590f2c17a2fd208e7e"
        "ed3bfe1f34c69b113dd1908646e207c6",
    },
    ("fns", "partial-completion"): {
        "driver": [229, 2],
        "queue": [0, 229, 0, 0, 271750.0],
        "iommu": [1087, 2],
        "timeline": "03228240bef890f5e4fb71a67c30d649"
        "80b8068bb3524d2c6562a165c9b05cce",
    },
    ("fns", "delay-completion"): {
        "driver": [0, 0],
        "queue": [0, 0, 337, 0, 882250.0],
        "iommu": [833, 0],
        "timeline": "a5398202b918a73a82508be6c92c76ca"
        "81c174bb0d41b9d1df3c78783c7aa782",
    },
    ("fns", "wedge-invq"): {
        "driver": [572, 143],
        "queue": [572, 0, 0, 1, 851250.0],
        "iommu": [1116, 144],
        "timeline": "99dc19680d44feca17de736b0fb5ce0b"
        "830adc0e5df92a256c3f3e9ab0b16b0e",
    },
    ("deferred", "drop-completion"): {
        "driver": [0, 0],
        "queue": [0, 0, 0, 0, 6500.0],
        "iommu": [26, 26],
        "deferred": [26, 250],
        "timeline": "e3b0c44298fc1c149afbf4c8996fb924"
        "27ae41e4649b934ca495991b7852b855",
    },
    ("deferred", "partial-completion"): {
        "driver": [0, 0],
        "queue": [0, 0, 0, 0, 6500.0],
        "iommu": [26, 26],
        "deferred": [26, 250],
        "timeline": "e3b0c44298fc1c149afbf4c8996fb924"
        "27ae41e4649b934ca495991b7852b855",
    },
    ("deferred", "delay-completion"): {
        "driver": [0, 12],
        "queue": [0, 0, 12, 0, 32500.0],
        "iommu": [34, 34],
        "deferred": [34, 248],
        "timeline": "55eb847b5f59ca8894bfc990e5305339"
        "00ca30a33c186d6be21e19308c59a84c",
    },
    ("deferred", "wedge-invq"): {
        "driver": [0, 0],
        "queue": [0, 0, 0, 0, 6500.0],
        "iommu": [26, 26],
        "deferred": [26, 250],
        "timeline": "e3b0c44298fc1c149afbf4c8996fb924"
        "27ae41e4649b934ca495991b7852b855",
    },
}


def cell_counters(mode, kind):
    plan = FaultPlan(seed=5, name=kind, specs=(SPECS[kind],))
    runtime = FaultRuntime(plan)
    with using(faults=runtime):
        testbed = Testbed(
            HostConfig.cascade_lake(
                mode=mode, recovery=kind == "wedge-invq"
            )
        )
        testbed.add_rx_flows(5)
        testbed.run(warmup_ns=WARMUP_NS, measure_ns=MEASURE_NS)
    driver = testbed.host.driver
    iommu = testbed.host.iommu
    queue = iommu.invalidation_queue
    counters = {
        "driver": [driver.invalidation_retries, driver.degraded_flushes],
        "queue": [
            queue.dropped_completions,
            queue.partial_completions,
            queue.delayed_completions,
            queue.rearms,
            queue.total_cpu_ns,
        ],
        "iommu": [
            iommu.stats.invalidation_requests,
            iommu.stats.ptcache_invalidation_requests,
        ],
        "timeline": hashlib.sha256(
            runtime.timeline_text().encode()
        ).hexdigest(),
    }
    if mode == "deferred":
        counters["deferred"] = [driver.flushes, driver.flush_threshold]
    return counters


@pytest.mark.parametrize("mode, kind", sorted(PINNED))
def test_invalidation_fault_cell_is_pinned(mode, kind):
    assert cell_counters(mode, kind) == PINNED[(mode, kind)]


def test_single_page_partial_completes_nothing_and_is_retried():
    # A partial completion keeps a strict prefix of the pages: of one
    # page that is none.  It still counts as partial, not dropped, and
    # the driver must treat it as unconfirmed.
    plan = FaultPlan(
        seed=1,
        specs=(FaultSpec("invalidation", "partial-completion"),),
    )
    with using(faults=FaultRuntime(plan)):
        iommu = Iommu(IommuConfig())
        driver = StrictFamilyDriver.linux_strict(
            iommu, PhysicalMemory(1 << 16), num_cpus=1
        )
    queue = iommu.invalidation_queue
    iommu.map_page(0x1000, 3)
    iommu.translate(0x1000)

    assert queue.invalidate_range(0x1000, PAGE_SIZE, True) == (250.0, 0)
    assert (queue.partial_completions, queue.dropped_completions) == (1, 0)
    assert iommu.iotlb.contains(0x1000)

    # Every attempt completes nothing: the driver retries up to its
    # budget, backing off each time, then falls back to a global flush.
    retries = driver.max_invalidation_retries + 1
    cost = driver._invalidate_robust(0x1000, PAGE_SIZE, True)
    assert driver.invalidation_retries == retries
    assert driver.degraded_flushes == 1
    assert queue.partial_completions == 1 + retries
    assert queue.dropped_completions == 0
    backoff = driver.invalidation_backoff_ns * (2 ** retries - 1)
    assert cost == retries * 250.0 + backoff + 250.0
    assert not iommu.iotlb.contains(0x1000)
