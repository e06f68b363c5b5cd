"""Unit tests for testbed wiring and measurement mechanics."""

from repro.context import using
from repro.faults import FaultPlan, FaultRuntime, FaultSpec
from repro.host import HostConfig, Testbed


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

    def test_switch_rate_matches_link(self):
        testbed = make_testbed(link_gbps=25.0)
        assert testbed.port_to_host.pacer.rate_bits_per_ns == 25.0


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
