"""The hard-fault reset & recovery protocol, end to end.

A latched wedge (hung invalidation queue or dead descriptor-fetch
engine) must be detected by the housekeeping tick, recovered by the
quiesce -> reset -> re-arm -> resume sequence, and paid for only in
throughput: zero safety violations, MTTR within the documented bound
(DESIGN.md §14), and no wedge still latched at end of run.
"""

from repro.apps.iperf import run_iperf
from repro.context import using
from repro.experiments.chaos import DEFAULT_MTTR_BOUND_NS
from repro.faults import FaultPlan, FaultRuntime, FaultSpec
from repro.iommu import IommuConfig
from repro.verify import InvariantMonitor

WARMUP_NS = 1_000_000.0
MEASURE_NS = 3_000_000.0
# Senders stall for an RTO (~4 ms) after a reset drops their in-flight
# segments; the watchdog interval must sit above that.
WATCHDOG_NS = 10_000_000.0


def wedge_plan(component, kind, seed=7):
    return FaultPlan(
        seed=seed,
        name=f"{kind}-test",
        specs=(
            FaultSpec(
                component,
                kind,
                start_ns=1_200_000.0,
                end_ns=2_000_000.0,
            ),
        ),
    )


def run_recovery_point(plan, recovery=True):
    monitor = InvariantMonitor()
    runtime = FaultRuntime(plan)
    with using(monitor=monitor, faults=runtime):
        point = run_iperf(
            "fns",
            flows=3,
            warmup_ns=WARMUP_NS,
            measure_ns=MEASURE_NS,
            strict_until=True,
            watchdog_interval_ns=WATCHDOG_NS,
            recovery=recovery,
            iommu=IommuConfig(fault_queue=True),
        )
    return point, runtime, monitor


def test_wedged_invalidation_queue_recovers():
    point, runtime, monitor = run_recovery_point(
        wedge_plan("invalidation", "wedge-invq")
    )
    extras = point.extras
    assert extras["recoveries"] >= 1
    assert extras["invq_rearms"] >= 1
    assert runtime.unrecovered_wedges() == 0
    assert 0.0 < extras["mttr_max_ns"] <= DEFAULT_MTTR_BOUND_NS
    assert monitor.violations == []
    # The run survives the wedge and keeps moving traffic.
    assert point.rx_goodput_gbps > 0.0


def test_wedged_device_recovers():
    point, runtime, monitor = run_recovery_point(
        wedge_plan("nic", "device-wedge")
    )
    extras = point.extras
    assert extras["recoveries"] >= 1
    assert runtime.unrecovered_wedges() == 0
    assert 0.0 < extras["mttr_max_ns"] <= DEFAULT_MTTR_BOUND_NS
    assert monitor.violations == []
    assert point.rx_goodput_gbps > 0.0


def test_wedge_stays_latched_without_recovery():
    # The seeded failure the chaos shrinker demo minimizes: same
    # schedule, reset protocol disabled.
    point, runtime, monitor = run_recovery_point(
        wedge_plan("invalidation", "wedge-invq"), recovery=False
    )
    assert runtime.unrecovered_wedges() == 1
    assert point.extras.get("recoveries", 0) == 0
    # Still zero violations: a wedge costs throughput, never safety —
    # every retire degrades to the global-flush fallback.
    assert monitor.violations == []


def test_recovery_timeline_tells_the_full_story():
    _, runtime, _ = run_recovery_point(
        wedge_plan("invalidation", "wedge-invq")
    )
    timeline = runtime.timeline_text()
    for milestone in ("latched", "detect", "reset", "resume", "cleared"):
        assert milestone in timeline
    # Causal order: latch -> detect -> reset (clearing the wedge)
    # -> resume.
    assert timeline.index("latched") < timeline.index("detect")
    assert timeline.index("detect") < timeline.index("resume")


def test_wedge_latching_mid_recovery_is_still_cleared():
    # Regression (chaos root seed 1, plan 190, shrunk to this pair):
    # the ring-stall triggers a device recovery, and the recovery's own
    # retire phase is what first trips the overlapping wedge window —
    # *after* reset_recover's opening re-arm.  The driver must notice
    # the dropped retire completions and re-arm again before resuming:
    # the post-reset RTO stall can outlive the run, leaving no later
    # traffic for the detector to re-flag the latched wedge.
    from repro.experiments.points import POINT_RUNNERS
    from repro.experiments.settings import QUICK
    from repro.parallel import PointSpec

    plan = FaultPlan(
        seed=4242,
        name="chaos-190-min",
        specs=(
            FaultSpec(
                "nic", "ring-stall",
                start_ns=2_601_010.0, end_ns=3_609_470.0,
            ),
            FaultSpec(
                "invalidation", "wedge-invq",
                start_ns=2_972_235.0, end_ns=3_730_417.0,
            ),
        ),
    )
    spec = PointSpec(
        figure="Chaos", runner="chaos_row", mode="fns", x="regression",
        label="chaos regression", seed=plan.seed, payload=(plan, 5, True),
    )
    row = POINT_RUNNERS["chaos_row"](spec, QUICK)
    assert row["outcome"] == "ok"
    assert row["unrecovered_wedges"] == 0
    assert row["violations"] == 0
    assert row["recoveries"] >= 1
    assert row["mttr_max_ns"] <= DEFAULT_MTTR_BOUND_NS


def test_recovery_is_deterministic():
    first = run_recovery_point(wedge_plan("invalidation", "wedge-invq"))
    second = run_recovery_point(wedge_plan("invalidation", "wedge-invq"))
    assert first[1].timeline_text() == second[1].timeline_text()
    assert first[0].extras["mttr_max_ns"] == second[0].extras["mttr_max_ns"]


def test_pinned_recovery_cell():
    # One quick chaos row whose invalidation queue wedges under a fault
    # storm, pinned exactly (values recorded before the recovery stage
    # latencies and fault-queue geometry became module constants): a
    # change to the detector cadence, a stage latency or the abort path
    # moves the MTTR, the goodput or the timeline.
    import hashlib

    from repro.experiments.points import POINT_RUNNERS
    from repro.experiments.settings import QUICK
    from repro.parallel import PointSpec

    plan = FaultPlan(
        seed=11,
        name="pinned-recovery",
        specs=(
            FaultSpec(
                "iommu", "fault-storm",
                start_ns=2_200_000.0, end_ns=2_900_000.0, probability=0.001,
            ),
            FaultSpec(
                "invalidation", "wedge-invq",
                start_ns=2_500_000.0, end_ns=3_400_000.0,
            ),
        ),
    )
    spec = PointSpec(
        figure="Chaos", runner="chaos_row", mode="fns", x="pinned",
        label="pinned recovery", seed=plan.seed, payload=(plan, 5, True),
    )
    row = POINT_RUNNERS["chaos_row"](spec, QUICK)
    timeline = hashlib.sha256(row["timeline"].encode()).hexdigest()
    assert (
        row["outcome"],
        row["goodput_gbps"],
        row["recoveries"],
        row["mttr_max_ns"],
        row["injected"],
        timeline,
    ) == (
        "ok",
        12.8188416,
        1,
        479_700.0,
        31,
        "1974239d05d45dd439ed0151e6239a1004c1c415334e97003f20999da34c1ca2",
    )
