"""Memory access latency model.

The paper's throughput model (§2.2) characterizes the datapath with two
fitted constants:

* ``l0`` = 65 ns — the average per-packet DMA cost in the absence of
  memory protection (PCIe transfer, DMA engine, descriptor handling,
  amortized over the parallelism of the DMA engine);
* ``lm`` = 197 ns — the average IOMMU-to-memory read latency for one IO
  page table access during a page walk (again averaged over walker
  parallelism).

We adopt those constants as the simulator's service-time parameters
(DESIGN.md §5.1) and additionally model *contention inflation*: when the
aggregate memory read rate approaches the channel bandwidth, per-read
latency rises.  The paper's Cascade Lake setup has 2 DDR4 channels
(46.9 GB/s theoretical); the Ice Lake setup has 8.  Contention matters
for the multi-core Fig 10 experiment.
"""

from __future__ import annotations

__all__ = ["MemoryLatencyModel", "DEFAULT_L0_NS", "DEFAULT_LM_NS"]

DEFAULT_L0_NS = 65.0
DEFAULT_LM_NS = 197.0
# Shape of the contention inflation curve: per-read latency multiplies
# by ``1 / (1 - u**e)`` at channel utilization ``u`` (M/M/1-flavoured).
CONTENTION_EXPONENT = 4.0


class MemoryLatencyModel:
    """Per-read IOMMU-to-memory latency under bandwidth contention."""

    def read_latency_ns(self, utilization: float = 0.0) -> float:
        """Latency of one page-table read at the given utilization.

        ``utilization`` is the fraction of channel bandwidth in use
        (0 ≤ u < 1); values ≥ 1 are clamped just below saturation.
        The host estimates it from its DMA byte rate.
        """
        if utilization <= 0.0:
            return DEFAULT_LM_NS
        u = min(utilization, 0.99)
        inflation = 1.0 / (1.0 - u ** CONTENTION_EXPONENT)
        return DEFAULT_LM_NS * inflation
