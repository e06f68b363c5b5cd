"""Pinned NIC and switch-port counters of two Rx cells.

Every packet crosses two bounded FIFOs: the switch egress queue (tail
drop, ECN marking) and the NIC input buffer (tail drop, ring-slot
admission, fault stalls).  The registry finals of both, recorded from
the implementation that ran both queues through one shared queue class
and kept the Rx DMA jobs in a separate host-side table, are pinned
here (``switch.to_host`` is the port toward the measured host,
``switch.to_peer`` the one toward its peer) for:

* quick fig7 strict with 40 flows, which overflows the NIC buffer
  (578 buffer drops) while the switch marks;
* a micro F&S cell under the fault sweep's ``nic`` plan (a ring stall
  plus dropped doorbells) with the ``net`` plan's wire loss added, so
  the stall order, the stall-end wakeups and the port's loss path all
  move counters.
"""

from repro.apps.iperf import run_iperf
from repro.context import using
from repro.experiments.faultsweep import sweep_plans
from repro.experiments.settings import QUICK, RunScale
from repro.faults import FaultPlan, FaultRuntime
from repro.obs import MetricsRegistry

MICRO = RunScale(
    name="micro",
    warmup_ns=800_000.0,
    measure_ns=1_500_000.0,
    latency_measure_ns=1_500_000.0,
)

FIG7_STRICT_40 = {
    "nic.arrived_bytes": 73805824,
    "nic.arrived_packets": 18019,
    "nic.buffer_drops": 578,
    "nic.buffered_bytes": 303104,
    "nic.completed_descriptors": 269,
    "nic.dma_bytes": 71135232,
    "nic.dma_packets": 17367,
    "nic.dropped_doorbells": 0,
    "nic.posted_descriptors": 307,
    "nic.ring_drops": 0,
    "nic.stalled_dequeues": 0,
    "switch.to_host.delivered_bytes": 73834496,
    "switch.to_host.drops": 0,
    "switch.to_host.injected_losses": 0,
    "switch.to_host.marked": 1104,
    "switch.to_host.queue_bytes": 200704,
    "switch.to_host.reordered_packets": 0,
    "switch.to_peer.delivered_bytes": 279104,
    "switch.to_peer.drops": 0,
    "switch.to_peer.injected_losses": 0,
    "switch.to_peer.marked": 0,
    "switch.to_peer.queue_bytes": 0,
    "switch.to_peer.reordered_packets": 0,
}

MICRO_NIC_STALL_NET_LOSS = {
    "nic.arrived_bytes": 23695360,
    "nic.arrived_packets": 5785,
    "nic.buffer_drops": 16,
    "nic.buffered_bytes": 0,
    "nic.completed_descriptors": 87,
    "nic.dma_bytes": 23629824,
    "nic.dma_packets": 5769,
    "nic.dropped_doorbells": 6,
    "nic.posted_descriptors": 127,
    "nic.ring_drops": 0,
    "nic.stalled_dequeues": 97,
    "switch.to_host.delivered_bytes": 23724032,
    "switch.to_host.drops": 0,
    "switch.to_host.injected_losses": 18,
    "switch.to_host.marked": 1314,
    "switch.to_host.queue_bytes": 159744,
    "switch.to_host.reordered_packets": 0,
    "switch.to_peer.delivered_bytes": 63104,
    "switch.to_peer.drops": 0,
    "switch.to_peer.injected_losses": 4,
    "switch.to_peer.marked": 0,
    "switch.to_peer.queue_bytes": 0,
    "switch.to_peer.reordered_packets": 0,
}


def queue_finals(registry):
    (phase,) = registry.report()["phases"]
    return {
        name: value
        for name, value in phase["final"].items()
        if name.startswith(("nic.", "switch."))
    }


def test_fig7_strict_40_flows():
    registry = MetricsRegistry()
    with using(registry=registry):
        run_iperf(
            "strict",
            flows=40,
            warmup_ns=QUICK.warmup_ns,
            measure_ns=QUICK.measure_ns,
        )
    assert queue_finals(registry) == FIG7_STRICT_40


def test_micro_nic_stall_with_net_loss():
    plans = dict(sweep_plans(1, MICRO))
    plan = FaultPlan(
        seed=1,
        name="nic+loss",
        specs=plans["nic"].specs + plans["net"].specs[:1],
    )
    assert [spec.kind for spec in plan.specs] == [
        "ring-stall", "doorbell-drop", "loss",
    ]
    registry = MetricsRegistry()
    runtime = FaultRuntime(plan)
    with using(registry=registry, faults=runtime):
        run_iperf(
            "fns",
            flows=5,
            warmup_ns=MICRO.warmup_ns,
            measure_ns=MICRO.measure_ns,
            strict_until=True,
        )
    assert runtime.injected_faults == 29
    assert queue_finals(registry) == MICRO_NIC_STALL_NET_LOSS
