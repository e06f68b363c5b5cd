"""iperf: the paper's throughput microbenchmark (Figs 2, 3, 7, 8, 10).

One unlimited DCTCP flow per registration; the paper's default is one
flow per core with five cores.  ``run_iperf`` builds a testbed for one
(mode, flows, ring size, ...) point and returns the measured
:class:`TestbedResult`, with the window's IOVA locality summarized in
the cell (the trace itself never leaves it); ``run_bidirectional_iperf``
adds Tx-direction flows on separate cores for the Fig 10
Rx/Tx-interference experiment.
"""

from __future__ import annotations

from typing import Optional

from ..analysis.locality import summarize_locality
from ..host.config import HostConfig
from ..host.testbed import Testbed, TestbedResult

__all__ = ["run_iperf", "run_bidirectional_iperf"]


def run_iperf(
    mode: str,
    flows: int = 5,
    warmup_ns: float = 3_000_000.0,
    measure_ns: float = 10_000_000.0,
    strict_until: bool = False,
    watchdog_interval_ns: Optional[float] = None,
    **config_overrides,
) -> TestbedResult:
    """Run one iperf point; returns the testbed measurement.

    ``config_overrides`` set :class:`HostConfig` fields (the studies'
    knobs).  ``strict_until`` and ``watchdog_interval_ns`` harden the
    run against dead workloads and deadlocks (see :mod:`repro.sim`);
    the fault-sweep experiment enables both.
    """
    config = HostConfig.cascade_lake(mode=mode, **config_overrides)
    testbed = Testbed(config, watchdog_interval_ns=watchdog_interval_ns)
    testbed.add_rx_flows(flows)
    result = testbed.run(
        warmup_ns=warmup_ns,
        measure_ns=measure_ns,
        strict_until=strict_until,
    )
    result.locality = summarize_locality(testbed.host.allocation_trace)
    return result


def run_bidirectional_iperf(
    mode: str,
    rx_cores: int,
    tx_cores: int,
    warmup_ns: float = 3_000_000.0,
    measure_ns: float = 10_000_000.0,
) -> TestbedResult:
    """Fig 10: concurrent Rx and Tx data flows on disjoint cores.

    One flow per core in each direction, on an Ice Lake host.
    """
    config = HostConfig.ice_lake(mode=mode, num_cores=rx_cores + tx_cores)
    testbed = Testbed(config)
    testbed.add_rx_flows(rx_cores, cores=list(range(rx_cores)))
    testbed.add_tx_flows(
        tx_cores, cores=list(range(rx_cores, rx_cores + tx_cores))
    )
    return testbed.run(warmup_ns=warmup_ns, measure_ns=measure_ns)
