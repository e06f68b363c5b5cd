"""Unit tests for the memory latency model."""

import pytest

from repro.host import Host, HostConfig
from repro.mem import DEFAULT_L0_NS, DEFAULT_LM_NS, MemoryLatencyModel
from repro.sim import Simulator


def test_paper_fitted_constants():
    """The paper fits l0 = 65 ns and lm = 197 ns (§2.2)."""
    assert DEFAULT_L0_NS == 65.0
    assert DEFAULT_LM_NS == 197.0


def test_uncontended_read_is_base_latency():
    model = MemoryLatencyModel()
    assert model.read_latency_ns(0.0) == DEFAULT_LM_NS


def test_latency_monotone_in_utilization():
    model = MemoryLatencyModel()
    latencies = [model.read_latency_ns(u / 10) for u in range(10)]
    assert latencies == sorted(latencies)
    assert latencies[-1] > latencies[0]


def test_saturation_clamped():
    model = MemoryLatencyModel()
    assert model.read_latency_ns(1.5) == model.read_latency_ns(0.99)
    assert model.read_latency_ns(0.99) < float("inf")


def test_low_utilization_barely_inflates():
    model = MemoryLatencyModel()
    assert model.read_latency_ns(0.2) == pytest.approx(DEFAULT_LM_NS, rel=0.01)


def test_utilization_conversion():
    # The host turns its DMA byte rate (bytes/ns == GB/s) into the
    # channel utilization the walker's reads see: with DDIO off each
    # payload crosses the memory bus twice, and the estimate is capped
    # below saturation.
    sim = Simulator()
    host = Host(sim, HostConfig.cascade_lake(), lambda packet: None)
    sim.run(until=100_000.0)
    half = 0.5 * host.config.memory_bandwidth_gbps / 2 * 100_000.0
    host._account_dma_bytes(int(half))
    assert host._mem_utilization == pytest.approx(0.5)
    sim.run(until=200_000.0)
    host._account_dma_bytes(int(4 * half))
    assert host._mem_utilization == 0.95
