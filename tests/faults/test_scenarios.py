"""End-to-end fault scenarios: every injector family, full testbed.

One scenario per family, each run under a raising
:class:`InvariantMonitor`: the workload must lose throughput relative
to a fault-free baseline while producing **zero** invariant violations.
"""

import pytest

from repro.apps.iperf import run_iperf
from repro.context import using
from repro.faults import FaultPlan, FaultRuntime, FaultSpec
from repro.verify import InvariantMonitor

WARMUP_NS = 500_000.0
MEASURE_NS = 1_500_000.0
HORIZON = WARMUP_NS + MEASURE_NS
WATCHDOG_NS = 500_000.0


def run_point(plan):
    """One monitored iperf point; returns (result, injected, monitor)."""
    monitor = InvariantMonitor()  # raising: violations fail the test
    injected = 0
    with using(monitor=monitor):
        if plan is None:
            point = run_iperf(
                "fns",
                flows=3,
                warmup_ns=WARMUP_NS,
                measure_ns=MEASURE_NS,
                strict_until=True,
                watchdog_interval_ns=WATCHDOG_NS,
            )
        else:
            runtime = FaultRuntime(plan)
            with using(faults=runtime):
                point = run_iperf(
                    "fns",
                    flows=3,
                    warmup_ns=WARMUP_NS,
                    measure_ns=MEASURE_NS,
                    strict_until=True,
                    watchdog_interval_ns=WATCHDOG_NS,
                )
            injected = runtime.injected_faults
    return point, injected, monitor


@pytest.fixture(scope="module")
def baseline_gbps():
    point, _, monitor = run_point(None)
    assert monitor.ok
    assert point.rx_goodput_gbps > 0
    return point.rx_goodput_gbps


def assert_degraded_but_safe(plan, baseline_gbps):
    point, injected, monitor = run_point(plan)
    assert injected > 0, "plan injected nothing; scenario is vacuous"
    assert monitor.ok
    assert len(monitor.violations) == 0
    assert point.rx_goodput_gbps < 0.95 * baseline_gbps
    return point


def test_invalidation_faults_degrade_but_stay_safe(baseline_gbps):
    plan = FaultPlan(
        seed=3,
        name="invalidation",
        specs=(
            FaultSpec(
                "invalidation",
                "drop-completion",
                WARMUP_NS,
                HORIZON,
                probability=1.0,
            ),
        ),
    )
    point = assert_degraded_but_safe(plan, baseline_gbps)
    # The drivers visibly paid for safety.
    assert point.extras["invalidation_retries"] > 0
    assert point.extras["degraded_flushes"] > 0
    assert point.extras["dropped_completions"] > 0


def test_pcie_faults_degrade_but_stay_safe(baseline_gbps):
    plan = FaultPlan(
        seed=3,
        name="pcie",
        specs=(
            FaultSpec(
                "pcie",
                "link-flap",
                WARMUP_NS + 0.1 * MEASURE_NS,
                WARMUP_NS + 0.25 * MEASURE_NS,
            ),
            FaultSpec(
                "pcie",
                "nack-replay",
                0.0,
                HORIZON,
                probability=0.5,
                magnitude=2_000.0,
            ),
        ),
    )
    assert_degraded_but_safe(plan, baseline_gbps)


def test_nic_faults_degrade_but_stay_safe(baseline_gbps):
    plan = FaultPlan(
        seed=3,
        name="nic",
        specs=(
            FaultSpec(
                "nic",
                "ring-stall",
                WARMUP_NS + 0.2 * MEASURE_NS,
                WARMUP_NS + 0.45 * MEASURE_NS,
            ),
            FaultSpec(
                "nic",
                "doorbell-drop",
                0.0,
                HORIZON,
                probability=0.2,
                magnitude=100_000.0,
            ),
        ),
    )
    assert_degraded_but_safe(plan, baseline_gbps)


def test_net_faults_degrade_but_stay_safe(baseline_gbps):
    plan = FaultPlan(
        seed=3,
        name="net",
        specs=(
            FaultSpec(
                "net", "loss", WARMUP_NS, HORIZON, probability=0.005
            ),
            FaultSpec(
                "net",
                "reorder",
                WARMUP_NS,
                HORIZON,
                probability=0.05,
                magnitude=10_000.0,
            ),
        ),
    )
    assert_degraded_but_safe(plan, baseline_gbps)
