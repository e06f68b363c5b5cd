"""Pinned event stream of nine micro-scale cells.

The host datapath and the event calendar are written for speed, so this
file pins what they must keep doing: schedule the same callbacks, at the
same times, in the same order.  Two pins per cell:

* ``PINNED``, the raw calendar: the number of executed events, the
  final sequence number (every event ever scheduled, cancelled or not)
  and the SHA-256 of the executed ``(time, seq)`` stream.
* ``WORK``, the events that do modelled work: their number and the
  SHA-256 of their ``(time, callback qualname)`` stream, with RTO timer
  wakeups left out, plus every ``(flow, time)`` at which a sender's
  retransmission timeout ran.  These were recorded from the switch
  that spent a second event per packet on its serialization end, with
  a peer that spent one more on its processing delay and RTO timers
  that were cancelled and re-pushed on every pump; with those events
  left out (and the peer's delayed call named after the method that
  now takes the arrival), the stream is the same.

The cells are the six of ``tests/iommu/test_pinned.py`` (strict, F&S,
F&S-huge and deferred Rx, strict Rx+Tx, strict Rx with a
fault-reporting queue), an IOMMU-off Rx cell, and strict Rx and Rx+Tx
cells that lose 5% of the packets on the wire in [0.3, 0.9) ms with a
0.2 ms RTO, so that timeouts fire at both the peer and the host.
"""

import functools
import hashlib
import heapq
import struct
import types

import pytest

from repro.context import using
from repro.faults import FaultPlan, FaultRuntime, FaultSpec
from repro.host.config import HostConfig
from repro.host.testbed import Testbed
from repro.iommu import IommuConfig
from repro.net import DctcpSender, dctcp
from repro.sim import engine

WARMUP_NS = 800_000.0
MEASURE_NS = 1_500_000.0

# (cell, mode) -> (executed events, final seq, sha256 of (time, seq)).
PINNED = {
    ("bidir", "strict"): (
        10086,
        11222,
        "6b6bab5b9c3203f9f197652bd44ce605"
        "27b44a8c465e21e85c30342d5d82d668",
    ),
    ("bidir-loss", "strict"): (
        8475,
        9701,
        "405caf42467bc85b1665eef6391eef3d"
        "ca73b6ad1b66057b5f0fe08437baf38a",
    ),
    ("rx", "deferred"): (
        16451,
        17252,
        "4ec822ca4dacb2272ee365b92f2cba84"
        "c292c98add5821faea9b2a53525610e0",
    ),
    ("rx", "fns"): (
        16563,
        17439,
        "b7a476406969283e8c1e91f13fc3a313"
        "adb1604cb4a9ba333b94bc96e34335e1",
    ),
    ("rx", "fns-huge"): (
        16250,
        17105,
        "29f2decef5b9ee217ebd859d3e5bc8b1"
        "c7acaa9b7dc0040b4968eda6724ec84f",
    ),
    ("rx", "off"): (
        16565,
        17447,
        "65750b6f47d85ea46b30070c8e102a10"
        "f9ca66c54002a4db26d65593394e9d71",
    ),
    ("rx", "strict"): (
        10712,
        11452,
        "5779772e6b9f76413c7ba896d06cc02b"
        "97dd9ef5b100f1b516fc011a041ca999",
    ),
    ("rx-faultq", "strict"): (
        10712,
        11452,
        "5779772e6b9f76413c7ba896d06cc02b"
        "97dd9ef5b100f1b516fc011a041ca999",
    ),
    ("rx-loss", "strict"): (
        12179,
        13012,
        "15d48c9dea969b42f1d672f9c3e62513"
        "1c5ad30204a53f789161ed7d9fed2462",
    ),
}

# (cell, mode) -> (work events, sha256 of (time, qualname), RTO firings).
# The two-event switch executed 16,771 / 14,251 / 24,777 / 25,026 /
# 24,622 / 25,004 / 16,473 / 16,473 / 18,646 events on these cells, in
# this order: a third or more of them did no modelled work.
WORK = {
    ("bidir", "strict"): (
        10086,
        "eb9fde5a3bdb47d8ab5fc0314b691eb3"
        "2d32d0187e4203e66acf81993bb2e61f",
        [],
    ),
    ("bidir-loss", "strict"): (
        8448,
        "261628f9e2a1f81d8a389929a669ab8f"
        "2e1f7b82becb5ec59b2c4f185c08136b",
        [(0, 713337.120261408), (1000, 889287.6005228604)],
    ),
    ("rx", "deferred"): (
        16451,
        "13a52ef689e4cd69bf3e5b4633570712"
        "4d7277b28ff215e29e468956bcf08ca5",
        [],
    ),
    ("rx", "fns"): (
        16563,
        "110df3f55227f22a5c209c9a820731bc"
        "3845e1b3d1220ed7292588cbb0012fad",
        [],
    ),
    ("rx", "fns-huge"): (
        16250,
        "dc4e38da6b069400c54a9a03fabe92ce"
        "0b87cda47761659e16e551a176a81a40",
        [],
    ),
    ("rx", "off"): (
        16565,
        "e572fabb1b451f378975089d3ca84660"
        "88a40113838b377a0f4d427af18261f6",
        [],
    ),
    ("rx", "strict"): (
        10712,
        "f54d87ee3136b28d0cdcbd7c18cbce45"
        "3e8ec49c6791c5d300d444752d4299b4",
        [],
    ),
    ("rx-faultq", "strict"): (
        10712,
        "f54d87ee3136b28d0cdcbd7c18cbce45"
        "3e8ec49c6791c5d300d444752d4299b4",
        [],
    ),
    ("rx-loss", "strict"): (
        12117,
        "230900a1e2d4bd7d0f1ba1ca3bafd43f"
        "e2055a4a6e181ccff3092af35bcf69d9",
        [
            (4, 593810.2665955804),
            (2, 617910.9606361443),
            (3, 793924.0122332074),
            (2, 856805.7507810292),
            (0, 893741.4833896928),
            (3, 1193924.0122332075),
        ],
    ),
}

# Timer wakeups are bookkeeping: a lazily re-armed timer wakes early
# and re-arms, and only the timeout it eventually runs is work.
NOT_WORK = {"RtoTimer._fire"}


def callback_name(callback):
    # A ``functools.partial`` is named after the function it binds.
    target = getattr(callback, "func", callback)
    return getattr(target, "__qualname__", repr(target))


def build(kind, mode):
    overrides = {}
    if kind == "rx-faultq":
        overrides["iommu"] = IommuConfig(fault_queue=True)
    if kind.startswith("rx"):
        testbed = Testbed(HostConfig.cascade_lake(mode=mode, **overrides))
        testbed.add_rx_flows(5)
    else:
        testbed = Testbed(
            HostConfig.ice_lake(mode=mode, num_cores=2, **overrides)
        )
        testbed.add_rx_flows(1, cores=[0])
        testbed.add_tx_flows(1, cores=[1])
    return testbed


@functools.lru_cache(maxsize=None)
def event_stream(kind, mode):
    """Run one cell; return its raw and work pins."""
    raw = hashlib.sha256()
    work = hashlib.sha256()
    work_events = 0
    timeouts = []

    def heappop(heap):
        # An entry is executed when it carries no handle or an
        # uncancelled one: the calendar skips exactly the others.
        nonlocal work_events
        entry = heapq.heappop(heap)
        handle = entry[3]
        if handle is None or not handle.cancelled:
            raw.update(struct.pack("<dq", entry[0], entry[1]))
            name = callback_name(entry[2])
            if name not in NOT_WORK:
                work_events += 1
                work.update(struct.pack("<d", entry[0]))
                work.update(name.encode() + b"\0")
        return entry

    on_rto = DctcpSender.on_rto
    rto_ns = dctcp.RTO_NS

    def recording_on_rto(sender, now):
        timeouts.append((sender.flow_id, now))
        return on_rto(sender, now)

    engine.heapq = types.SimpleNamespace(
        heappush=heapq.heappush, heapify=heapq.heapify, heappop=heappop
    )
    DctcpSender.on_rto = recording_on_rto
    try:
        if kind.endswith("-loss"):
            # A 200 us RTO lets the loss window's timeouts fire.
            dctcp.RTO_NS = 200_000.0
            spec = FaultSpec(
                "net", "loss", start_ns=300_000.0, end_ns=900_000.0,
                probability=0.05,
            )
            plan = FaultPlan(seed=7, specs=(spec,))
            with using(faults=FaultRuntime(plan)):
                testbed = build(kind, mode)
        else:
            testbed = build(kind, mode)
        testbed.run(warmup_ns=WARMUP_NS, measure_ns=MEASURE_NS)
    finally:
        engine.heapq = heapq
        DctcpSender.on_rto = on_rto
        dctcp.RTO_NS = rto_ns
    sim = testbed.sim
    return (
        (sim.executed_events, sim._seq, raw.hexdigest()),
        (work_events, work.hexdigest(), timeouts),
    )


@pytest.mark.parametrize("cell", sorted(PINNED), ids="-".join)
def test_event_stream_pinned(cell):
    assert event_stream(*cell)[0] == PINNED[cell]


@pytest.mark.parametrize("cell", sorted(WORK), ids="-".join)
def test_work_events_match_two_event_switch(cell):
    assert event_stream(*cell)[1] == WORK[cell]
