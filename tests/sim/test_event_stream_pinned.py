"""Pinned event stream of five micro-scale cells.

The host datapath and the event calendar are written for speed, so this
file pins what they must keep doing: schedule the same callbacks, at the
same times, in the same order.  For each cell it records the number of
executed events, the final sequence number (every event ever scheduled,
cancelled or not) and the SHA-256 of the executed ``(time, seq)``
stream.  The numbers were recorded from the datapath that built a
closure per DMA callback and never compacted its calendar.

The cells are the six of ``tests/iommu/test_pinned.py`` (strict, F&S,
F&S-huge and deferred Rx, strict Rx+Tx, strict Rx with a
fault-reporting queue) plus an IOMMU-off Rx cell.
"""

import hashlib
import heapq
import struct
import types

import pytest

from repro.host.config import HostConfig
from repro.host.testbed import Testbed
from repro.iommu import IommuConfig
from repro.sim import engine

WARMUP_NS = 800_000.0
MEASURE_NS = 1_500_000.0

# (cell, mode) -> (executed events, final seq, sha256 of (time, seq)).
PINNED = {
    ("rx", "off"): (
        25004,
        25748,
        "deb3a22b4a1958fc8d689f3f3a7e7bfa"
        "e7df4fdfd3cea71f4f749371fce29c76",
    ),
    ("rx", "strict"): (
        16473,
        17188,
        "0768ec1d57709ed466c62c6739d4c901"
        "f4079fcb28da1aad955deb7e3b2b65ba",
    ),
    ("rx", "fns"): (
        25026,
        25776,
        "2f1d257408bab8c23a9829fcf3904fd6"
        "f9df2c36d1cbc705c8f9cc79188b48a1",
    ),
    ("rx", "fns-huge"): (
        24622,
        25338,
        "eac2017622b95c3c0d6c82c405aa5a6d"
        "d84bb57414fb1b178e6c628fa5426601",
    ),
    ("bidir", "strict"): (
        16771,
        17905,
        "d9799a9f93fc3fdbe0710ec40271cdb1"
        "f534b5fc9330d0102f1eb7ba8c6d3a48",
    ),
    ("rx", "deferred"): (
        24777,
        25464,
        "c023e2295935f111d569ad6cd7c457e2"
        "e2bd6139d60b5ede24c5fea88fd7fec9",
    ),
    ("rx-faultq", "strict"): (
        16473,
        17188,
        "0768ec1d57709ed466c62c6739d4c901"
        "f4079fcb28da1aad955deb7e3b2b65ba",
    ),
}


def recording_heapq(digest):
    """``heapq`` for the engine, hashing each executed entry it pops.

    An entry is executed when it carries no handle or an uncancelled
    one: the calendar skips exactly the others.
    """

    def heappop(heap):
        entry = heapq.heappop(heap)
        handle = entry[3]
        if handle is None or not handle.cancelled:
            digest.update(struct.pack("<dq", entry[0], entry[1]))
        return entry

    return types.SimpleNamespace(
        heappush=heapq.heappush, heapify=heapq.heapify, heappop=heappop
    )


def event_stream(kind, mode):
    if kind == "rx":
        testbed = Testbed(HostConfig.cascade_lake(mode=mode))
        testbed.add_rx_flows(5)
    elif kind == "rx-faultq":
        testbed = Testbed(
            HostConfig.cascade_lake(
                mode=mode, iommu=IommuConfig(fault_queue=True)
            )
        )
        testbed.add_rx_flows(5)
    else:
        testbed = Testbed(HostConfig.ice_lake(mode=mode, num_cores=2))
        testbed.add_rx_flows(1, cores=[0])
        testbed.add_tx_flows(1, cores=[1])
    testbed.run(warmup_ns=WARMUP_NS, measure_ns=MEASURE_NS)
    sim = testbed.sim
    return sim.executed_events, sim._seq


@pytest.mark.parametrize("cell", sorted(PINNED), ids="-".join)
def test_event_stream_pinned(cell, monkeypatch):
    digest = hashlib.sha256()
    monkeypatch.setattr(engine, "heapq", recording_heapq(digest))
    executed, seq = event_stream(*cell)
    assert (executed, seq, digest.hexdigest()) == PINNED[cell]
