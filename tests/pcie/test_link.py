"""Unit tests for the PCIe DMA pipeline."""

import pytest

from repro.pcie import (
    MAX_PAYLOAD_BYTES,
    PCIE_GBPS,
    DmaPipeline,
    transactions,
)
from repro.sim import Simulator


def test_wire_time_and_tlp_split():
    assert (PCIE_GBPS, MAX_PAYLOAD_BYTES) == (128.0, 256)
    pipe = DmaPipeline(Simulator(), lanes=1)
    assert pipe.reserve_wire(0.0, 4096) == pytest.approx(256.0)
    assert transactions(4096) == 16
    assert transactions(64) == 1
    assert transactions(257) == 2
    assert transactions(0) == 0


def test_single_lane_serializes_dmas():
    sim = Simulator()
    pipe = DmaPipeline(sim, lanes=1)
    finished = []

    def begin(job, start):
        return start + 100.0

    def finish(job):
        finished.append((job, sim.now))

    for index in range(3):
        pipe.submit(4096, begin, finish, index)
    sim.run()
    assert finished == [(0, 100.0), (1, 200.0), (2, 300.0)]
    assert pipe.completed_dmas == 3
    assert pipe.completed_bytes == 3 * 4096


def test_multi_lane_overlaps_latency():
    sim = Simulator()
    pipe = DmaPipeline(sim, lanes=2)
    finished = []
    for index in range(4):
        pipe.submit(
            64,
            lambda job, s: s + 100.0,
            lambda job: finished.append((job, sim.now)),
            index,
        )
    sim.run()
    assert finished == [(0, 100.0), (1, 100.0), (2, 200.0), (3, 200.0)]


def test_begin_runs_at_start_time_not_submit_time():
    """Probes must happen when the DMA starts, so that invalidations by
    earlier completions interleave correctly."""
    sim = Simulator()
    pipe = DmaPipeline(sim, lanes=1)
    begin_times = []

    def begin(job, start):
        begin_times.append((job, start))
        return start + 50.0

    pipe.submit(64, begin, lambda job: None, "first")
    pipe.submit(64, begin, lambda job: None, "second")
    sim.run()
    assert begin_times == [("first", 0.0), ("second", 50.0)]


def test_shared_wire_caps_aggregate_rate():
    """Even with 4 lanes, the wire serializer admits at most link rate."""
    sim = Simulator()
    pipe = DmaPipeline(sim, lanes=4)
    finished = []

    def begin(size, start):
        return pipe.reserve_wire(start, size)

    for _ in range(8):
        pipe.submit(4096, begin, lambda size: finished.append(sim.now), 4096)
    sim.run()
    # 8 * 4096 B at 128 Gbps = 8 * 256 ns = 2048 ns minimum.
    assert finished[-1] >= 2048.0 - 1e-6


def test_backwards_completion_rejected():
    sim = Simulator()
    pipe = DmaPipeline(sim, lanes=1)
    with pytest.raises(ValueError):
        # A free lane starts the DMA synchronously; the bogus begin()
        # is caught immediately.
        pipe.submit(64, lambda job, start: start - 1.0, lambda job: None, None)


def test_queue_depth_reporting():
    sim = Simulator()
    pipe = DmaPipeline(sim, lanes=1)
    for index in range(3):
        pipe.submit(64, lambda job, s: s + 10.0, lambda job: None, index)
    assert pipe.inflight == 1
    assert pipe.queued == 2


def test_zero_lanes_rejected():
    with pytest.raises(ValueError):
        DmaPipeline(Simulator(), lanes=0)
