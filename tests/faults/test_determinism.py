"""Determinism of injected faults: the acceptance contract is that
identical (seed, plan, workload) yields **byte-identical** fault
timelines — in process and across interpreter processes with different
hash seeds."""

import os
import pathlib
import subprocess
import sys

import repro
from repro.apps.iperf import run_iperf
from repro.context import using
from repro.faults import FaultPlan, FaultRuntime, FaultSpec

MIXED_PLAN_CODE = """
from repro.apps.iperf import run_iperf
from repro.context import using
from repro.faults import FaultPlan, FaultRuntime, FaultSpec

plan = FaultPlan(seed=7, name="mix", specs=(
    FaultSpec("invalidation", "drop-completion", probability=0.5),
    FaultSpec("pcie", "nack-replay", probability=0.3, magnitude=1500.0),
    FaultSpec("nic", "doorbell-drop", probability=0.2, magnitude=50000.0),
    FaultSpec("net", "loss", probability=0.01),
))
runtime = FaultRuntime(plan)
with using(faults=runtime):
    run_iperf("fns", flows=2, warmup_ns=200000.0, measure_ns=600000.0)
print(runtime.timeline_text())
"""


def mixed_plan(seed):
    return FaultPlan(
        seed=seed,
        name="mix",
        specs=(
            FaultSpec("invalidation", "drop-completion", probability=0.5),
            FaultSpec("net", "loss", probability=0.01),
        ),
    )


def timeline(seed):
    runtime = FaultRuntime(mixed_plan(seed))
    with using(faults=runtime):
        run_iperf("fns", flows=2, warmup_ns=200_000.0, measure_ns=600_000.0)
    return runtime.timeline_text()


def test_same_seed_same_timeline_in_process():
    first = timeline(seed=5)
    second = timeline(seed=5)
    assert first  # the plan actually injected something
    assert first == second


def test_different_seeds_differ():
    assert timeline(seed=5) != timeline(seed=6)


def test_timeline_identical_across_processes():
    """Two interpreters with different PYTHONHASHSEEDs must print the
    same fault timeline byte for byte."""
    src_dir = str(pathlib.Path(repro.__file__).resolve().parents[1])
    outputs = set()
    for hash_seed in ("0", "12345"):
        result = subprocess.run(
            [sys.executable, "-c", MIXED_PLAN_CODE],
            capture_output=True,
            text=True,
            env={
                "PYTHONHASHSEED": hash_seed,
                "PATH": "/usr/bin:/bin",
                "PYTHONPATH": src_dir + os.pathsep + os.environ.get(
                    "PYTHONPATH", ""
                ),
            },
        )
        assert result.returncode == 0, result.stderr
        outputs.add(result.stdout)
    assert len(outputs) == 1
    assert outputs.pop().strip()  # non-empty: faults were injected
