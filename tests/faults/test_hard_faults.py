"""Hard-fault latch semantics and fault-window edge cases.

Hard kinds (`wedge-invq`, `device-wedge`) latch on their first rolled
in-window opportunity, persist past the window's end, and clear only on
an explicit reset — exactly once.  The window tests pin the documented
start-inclusive / end-exclusive activation contract, and the magnitude
tests pin the partial-completion edge values (0.0 falls back to the
default fraction; 1.0 clamps to pages - 1 so a "partial" completion is
never total).
"""

import math

from repro.context import using
from repro.faults import FaultPlan, FaultSpec
from repro.faults.injectors import DEFAULT_PARTIAL_FRACTION
from repro.faults.runtime import FaultRuntime
from repro.iommu import Iommu, IommuConfig
from repro.iommu.addr import PAGE_SIZE


def plan_for(kind, probability=1.0, magnitude=0.0, seed=1):
    return FaultPlan(
        seed=seed,
        specs=(
            FaultSpec(
                "invalidation",
                kind,
                probability=probability,
                magnitude=magnitude,
            ),
        ),
    )


def faulted_iommu(plan):
    with using(faults=FaultRuntime(plan)):
        # The queue captures its injector at construction time.
        iommu = Iommu(IommuConfig())
    return iommu


def warm(iommu, base, pages):
    for page in range(pages):
        iommu.map_page(base + page * PAGE_SIZE, page)
        iommu.translate(base + page * PAGE_SIZE)


class Clock:
    """Settable stand-in for the simulator's clock."""

    def __init__(self, now=0.0):
        self.now = now


def runtime_at(plan, now=0.0):
    runtime = FaultRuntime(plan)
    runtime.bind_clock(Clock(now))
    return runtime


def windowed_plan(component, kind, start, end, probability=1.0):
    return FaultPlan(
        seed=3,
        specs=(
            FaultSpec(
                component,
                kind,
                start_ns=start,
                end_ns=end,
                probability=probability,
            ),
        ),
    )


# ---------------------------------------------------------------------------
# wedge-invq: latch, persistence, one-shot clear
# ---------------------------------------------------------------------------
def test_wedge_latches_only_inside_window():
    plan = windowed_plan("invalidation", "wedge-invq", 1_000.0, 2_000.0)
    runtime = runtime_at(plan, now=500.0)
    injector = runtime.injector("invalidation")
    status, _, done = injector.outcome(0x1000, PAGE_SIZE, 250.0)
    assert status == "completed"
    assert done == PAGE_SIZE
    assert not injector.wedged


def test_wedge_persists_past_window_until_reset():
    plan = windowed_plan("invalidation", "wedge-invq", 1_000.0, 2_000.0)
    runtime = runtime_at(plan, now=1_500.0)
    clock = runtime.sim
    injector = runtime.injector("invalidation")

    status, extra, done = injector.outcome(0x1000, PAGE_SIZE, 250.0)
    assert (status, done) == ("dropped", 0)
    assert extra > 0.0
    assert injector.wedged
    assert runtime.unrecovered_wedges() == 1

    # Past the window's end the wedge still drops every submit: a hung
    # queue does not heal when the fault window closes.
    clock.now = 5_000.0
    status, _, done = injector.outcome(0x2000, PAGE_SIZE, 250.0)
    assert (status, done) == ("dropped", 0)
    assert injector.wedged

    injector.notify_reset()
    assert not injector.wedged
    assert runtime.unrecovered_wedges() == 0
    status, _, done = injector.outcome(0x3000, PAGE_SIZE, 250.0)
    assert (status, done) == ("completed", PAGE_SIZE)


def test_wedge_clear_is_one_shot():
    # After a reset the same window must not deterministically re-latch
    # on the very next opportunity, or recovery could never complete.
    plan = windowed_plan("invalidation", "wedge-invq", 1_000.0, 2_000.0)
    runtime = runtime_at(plan, now=1_200.0)
    injector = runtime.injector("invalidation")
    injector.outcome(0x1000, PAGE_SIZE, 250.0)
    assert injector.wedged
    injector.notify_reset()
    # Still inside the window: no re-latch.
    status, _, _ = injector.outcome(0x2000, PAGE_SIZE, 250.0)
    assert status == "completed"
    assert not injector.wedged


def test_wedge_timeline_records_latch_and_clear_only():
    plan = windowed_plan("invalidation", "wedge-invq", 0.0, 2_000.0)
    runtime = runtime_at(plan)
    injector = runtime.injector("invalidation")
    for offset in range(4):
        injector.outcome(0x1000 + offset * PAGE_SIZE, PAGE_SIZE, 250.0)
    injector.notify_reset()
    kinds = [record.detail for record in runtime.records]
    # One latch record, one clear record — not one per dropped submit.
    assert len(runtime.records) == 2
    assert "latched" in kinds[0]
    assert "cleared by reset" in kinds[1]


# ---------------------------------------------------------------------------
# device-wedge: the NIC-side latch
# ---------------------------------------------------------------------------
def test_device_wedge_stalls_forever_until_reset():
    plan = windowed_plan("nic", "device-wedge", 1_000.0, 2_000.0)
    runtime = runtime_at(plan, now=1_500.0)
    clock = runtime.sim
    injector = runtime.injector("nic")

    assert injector.stall_until() == math.inf
    assert injector.wedged
    clock.now = 9_000.0  # long past the window
    assert injector.stall_until() == math.inf

    injector.notify_reset()
    assert not injector.wedged
    assert injector.stall_until() is None


def test_device_wedge_inactive_outside_window():
    plan = windowed_plan("nic", "device-wedge", 1_000.0, 2_000.0)
    runtime = runtime_at(plan, now=0.0)
    injector = runtime.injector("nic")
    assert injector.stall_until() is None
    assert not injector.wedged


# ---------------------------------------------------------------------------
# fault-storm: per-translation spurious aborts
# ---------------------------------------------------------------------------
def test_fault_storm_fires_only_inside_window():
    plan = windowed_plan("iommu", "fault-storm", 1_000.0, 2_000.0)
    runtime = runtime_at(plan, now=1_500.0)
    clock = runtime.sim
    injector = runtime.injector("iommu")
    assert injector.spurious_fault(0x1000, "rx")
    clock.now = 2_000.0
    assert not injector.spurious_fault(0x1000, "rx")
    # A storm is transient, never a latched wedge.
    assert not injector.wedged


# ---------------------------------------------------------------------------
# Window boundaries: start-inclusive, end-exclusive
# ---------------------------------------------------------------------------
def test_window_start_is_inclusive():
    plan = windowed_plan("invalidation", "drop-completion", 1_000.0, 2_000.0)
    runtime = runtime_at(plan, now=1_000.0)
    injector = runtime.injector("invalidation")
    status, _, _ = injector.outcome(0x1000, PAGE_SIZE, 250.0)
    assert status == "dropped"


def test_window_end_is_exclusive():
    plan = windowed_plan("invalidation", "drop-completion", 1_000.0, 2_000.0)
    runtime = runtime_at(plan, now=2_000.0)
    injector = runtime.injector("invalidation")
    status, _, done = injector.outcome(0x1000, PAGE_SIZE, 250.0)
    assert (status, done) == ("completed", PAGE_SIZE)


def test_window_just_before_start_is_inactive():
    plan = windowed_plan("invalidation", "drop-completion", 1_000.0, 2_000.0)
    runtime = runtime_at(plan, now=999.0)
    injector = runtime.injector("invalidation")
    status, _, _ = injector.outcome(0x1000, PAGE_SIZE, 250.0)
    assert status == "completed"


# ---------------------------------------------------------------------------
# Partial-completion magnitude edges (through the real queue)
# ---------------------------------------------------------------------------
def test_partial_magnitude_zero_uses_default_fraction():
    iommu = faulted_iommu(plan_for("partial-completion", magnitude=0.0))
    warm(iommu, 0x600000, 4)
    queue = iommu.invalidation_queue
    _, completed = queue.invalidate_range(
        0x600000, 4 * PAGE_SIZE, preserve_ptcache=True
    )
    assert queue.partial_completions == 1
    expected = int(4 * DEFAULT_PARTIAL_FRACTION) * PAGE_SIZE
    assert completed == expected


def test_partial_magnitude_one_clamps_to_all_but_last_page():
    # magnitude=1.0 would otherwise complete the whole range, turning
    # "partial" into a lie; the injector clamps to pages - 1 so the
    # last page always survives as the stale suffix the driver must
    # re-invalidate.
    iommu = faulted_iommu(plan_for("partial-completion", magnitude=1.0))
    warm(iommu, 0x700000, 4)
    queue = iommu.invalidation_queue
    _, completed = queue.invalidate_range(
        0x700000, 4 * PAGE_SIZE, preserve_ptcache=True
    )
    assert queue.partial_completions == 1
    assert completed == 3 * PAGE_SIZE
    assert iommu.iotlb.contains(0x700000 + 3 * PAGE_SIZE)
    assert not iommu.iotlb.contains(0x700000)
