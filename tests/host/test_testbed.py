"""Unit tests for testbed wiring and measurement mechanics."""

import repro.host.testbed as testbed_module
from repro.context import using
from repro.faults import FaultPlan, FaultRuntime, FaultSpec
from repro.host import HostConfig, Testbed
from repro.host.remote import PROCESSING_DELAY_NS
from repro.obs import MetricsRegistry


def make_testbed(mode="off", **kwargs):
    return Testbed(HostConfig.cascade_lake(mode=mode, num_cores=2, **kwargs))


class TestFlowSetup:
    def test_rx_flows_registered_both_ends(self):
        testbed = make_testbed()
        flow_ids = testbed.add_rx_flows(3)
        assert len(flow_ids) == 3
        for flow_id in flow_ids:
            assert testbed.host._flows[flow_id].receiver is not None
            assert testbed.remote._flows[flow_id].sender is not None

    def test_tx_flows_registered_both_ends(self):
        testbed = make_testbed()
        flow_ids = testbed.add_tx_flows(2)
        for flow_id in flow_ids:
            assert testbed.host._flows[flow_id].sender is not None
            assert testbed.remote._flows[flow_id].receiver is not None

    def test_explicit_core_pinning(self):
        testbed = make_testbed()
        testbed.add_rx_flows(2, cores=[1, 1])
        for flow_id in testbed.rx_flow_ids:
            assert testbed.host._flows[flow_id].core == 1

    def test_default_round_robin_cores(self):
        testbed = make_testbed()
        testbed.add_rx_flows(4)
        cores = [testbed.host._flows[f].core for f in testbed.rx_flow_ids]
        assert cores == [0, 1, 0, 1]


class TestMeasurement:
    def test_warmup_excluded_from_measurement(self):
        testbed = make_testbed()
        testbed.add_rx_flows(2)
        result = testbed.run(warmup_ns=1e6, measure_ns=2e6)
        # Goodput is computed over the measure window only; with the
        # warmup excluded it reflects steady state, not slow start.
        assert result.elapsed_ns == 2e6
        assert result.rx_goodput_gbps > 0

    def test_result_counts_only_registered_directions(self):
        testbed = make_testbed()
        testbed.add_rx_flows(1)
        result = testbed.run(warmup_ns=1e6, measure_ns=2e6)
        assert result.tx_goodput_gbps == 0.0

    def test_off_mode_reports_no_iommu_metrics(self):
        testbed = make_testbed(mode="off")
        testbed.add_rx_flows(1)
        result = testbed.run(warmup_ns=1e6, measure_ns=2e6)
        assert result.memory_reads_per_page == 0.0

    def test_clock_is_fresh_per_testbed(self):
        first = make_testbed()
        first.add_rx_flows(1)
        first.run(warmup_ns=1e6, measure_ns=1e6)
        second = make_testbed()
        assert second.sim.now == 0.0


class TestWireLevel:
    def test_ports_are_cross_connected(self):
        testbed = make_testbed()
        assert testbed.port_to_host.deliver == testbed.host.packet_from_wire
        assert (
            testbed.port_to_remote.deliver
            == testbed.remote.packet_from_wire
        )
        # The host's datapath models its own delays; the peer's
        # processing delay rides on the port's arrival event.
        assert testbed.port_to_host.receiver_delay_ns == 0.0
        assert testbed.port_to_remote.receiver_delay_ns == PROCESSING_DELAY_NS

    def test_switch_rate_matches_link(self, monkeypatch):
        monkeypatch.setattr(testbed_module, "LINK_GBPS", 25.0)
        testbed = make_testbed()
        assert testbed.port_to_host.rate_bits_per_ns == 25.0
        assert testbed.port_to_remote.rate_bits_per_ns == 25.0


class TestEcnMarks:
    def test_marked_metric_counts_the_marked_packets(self, monkeypatch):
        # A low DCTCP threshold toward the peer makes the host's Tx
        # flows queue past it; every packet either end hands to the
        # switch is recorded, and each port's metric must equal the
        # packets it admitted with the ECN mark set.
        monkeypatch.setattr(
            testbed_module, "ECN_THRESHOLD_TO_PEER_BYTES", 20_000
        )
        registry = MetricsRegistry()
        with using(registry=registry):
            testbed = Testbed(HostConfig.cascade_lake(mode="off", num_cores=2))
        toward_host, toward_remote = [], []

        def recording(wire_out, sent):
            def send(packet):
                admitted = wire_out(packet)
                if admitted:
                    sent.append(packet)
                return admitted

            return send

        testbed.host.wire_out = recording(
            testbed.host.wire_out, toward_remote
        )
        testbed.remote.wire_out = recording(
            testbed.remote.wire_out, toward_host
        )
        testbed.add_rx_flows(2)
        testbed.add_tx_flows(2)
        testbed.run(warmup_ns=2e5, measure_ns=5e5)
        final = registry.report()["phases"][0]["final"]
        marked_toward_remote = sum(p.ecn_marked for p in toward_remote)
        assert marked_toward_remote > 0
        assert final["switch.to_peer.marked"] == marked_toward_remote
        assert final["switch.to_host.marked"] == sum(
            p.ecn_marked for p in toward_host
        )


class TestFaultAccounting:
    def test_run_reports_the_faults_its_constructor_saw(self):
        # Built under a plan, run outside it: the injectors the
        # constructor attached still fire, and the result must say so.
        plan = FaultPlan(
            seed=3, specs=(FaultSpec("net", "loss", probability=0.05),)
        )
        runtime = FaultRuntime(plan)
        with using(faults=runtime):
            testbed = make_testbed(mode="strict")
        testbed.add_rx_flows(2)
        result = testbed.run(warmup_ns=2e5, measure_ns=5e5)
        assert runtime.injected_faults > 0
        assert result.extras["injected_faults"] == runtime.injected_faults
        assert result.extras["unrecovered_wedges"] == 0


class TestNetFaults:
    """Loss and reorder windows act on packets the switch admits in them."""

    LOSS = (300_000.0, 600_000.0)
    REORDER = (900_000.0, 1_200_000.0)

    def run_lossy_testbed(self):
        plan = FaultPlan(
            seed=5,
            specs=(
                FaultSpec("net", "loss", *self.LOSS, probability=0.05),
                FaultSpec(
                    "net", "reorder", *self.REORDER, probability=0.05,
                    magnitude=10_000.0,
                ),
            ),
        )
        runtime = FaultRuntime(plan)
        with using(faults=runtime):
            testbed = make_testbed(mode="strict")
        testbed.add_rx_flows(2)
        port = testbed.port_to_host
        admitted, arrived = [], []
        enqueue, deliver = port.enqueue, port.deliver

        def recording_enqueue(packet):
            losses = port.injected_losses
            accepted = enqueue(packet)
            if accepted and port.injected_losses == losses:
                admitted.append(packet.packet_id)
            return accepted

        def recording_deliver(packet):
            arrived.append(packet.packet_id)
            deliver(packet)

        port.deliver = recording_deliver
        testbed.remote.wire_out = recording_enqueue
        testbed.run(warmup_ns=200_000.0, measure_ns=1_300_000.0)
        return runtime, port, admitted, arrived

    def test_loss_and_reorder_windows_fire_on_the_wire(self):
        runtime, port, admitted, arrived = self.run_lossy_testbed()
        assert port.injected_losses > 0
        assert port.reordered_packets > 0
        windows = {"loss": self.LOSS, "reorder": self.REORDER}
        for record in runtime.records:
            start, end = windows[record.kind]
            assert start <= record.time_ns < end, record
        # Lost packets never arrive: everything that arrives was
        # admitted, and arrivals trail admissions only by what is
        # still on the wire at the end of the run.
        assert set(arrived) <= set(admitted)
        in_flight = len(admitted) - len(arrived)
        assert 0 <= in_flight < 50
        # Reordered packets land behind packets admitted after them.
        rank = {packet_id: index for index, packet_id in enumerate(admitted)}
        ranks = [rank[packet_id] for packet_id in arrived]
        assert ranks != sorted(ranks)
