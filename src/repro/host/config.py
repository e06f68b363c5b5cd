"""Host configuration: the paper's testbeds as data.

Two presets mirror the paper's measurement setups:

* :meth:`HostConfig.cascade_lake` — §2.2's default: 4-socket Cascade
  Lake, Xeon Gold 6234, 2 DDR4 channels (46.9 GB/s), 100 Gbps CX-5,
  128 Gbps PCIe 3.0, 4 KB MTU, 256-packet rings, 5 cores, DDIO off;

* :meth:`HostConfig.ice_lake` — §4.1's Rx/Tx interference setup: Xeon
  Platinum 8362, 32 cores/socket, 8 DDR4-3200 channels, DDIO forced on.

``mode`` selects the protection driver: ``"off"``, ``"strict"``
(Linux), ``"fns"``, ``"linux+A"``, ``"linux+B"`` (the Fig 12 ablation
points) or ``"deferred"``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..iommu import IommuConfig
from ..mem.physmem import PAGE_SIZE
from ..net.dctcp import DctcpParams
from ..pcie import PcieConfig

__all__ = ["HostConfig", "CpuCosts", "MODE_NAMES"]

MODE_NAMES = (
    "off",
    "strict",
    "fns",
    "fns-huge",
    "linux+A",
    "linux+B",
    "deferred",
)


@dataclass
class CpuCosts:
    """Per-core software costs (ns) for the host CPU model.

    ``stack_per_packet_ns`` covers protocol processing per MTU packet;
    ``stack_per_poll_ns`` the fixed NAPI poll + IRQ overhead amortized
    over the batch; ``data_touch_base_ns`` the per-packet data-copy
    cost, which grows with ring size as the buffer footprint defeats
    the hardware prefetchers (the paper's explanation for F&S's small
    CPU-bound gap at 2048-packet rings, §4.4); DDIO reduces the touch
    cost because payloads land in LLC.
    """

    stack_per_packet_ns: float = 300.0
    stack_per_poll_ns: float = 3000.0
    data_touch_base_ns: float = 260.0
    data_touch_ring_factor: float = 0.55  # extra fraction per ring doubling
    ddio_touch_discount: float = 0.45

    def data_touch_ns(
        self, ring_size_packets: int, enable_ddio: bool
    ) -> float:
        doublings = 0
        size = 256
        while size < ring_size_packets:
            size *= 2
            doublings += 1
        cost = self.data_touch_base_ns * (
            1.0 + self.data_touch_ring_factor * doublings
        )
        if enable_ddio:
            cost *= 1.0 - self.ddio_touch_discount
        return cost


@dataclass
class HostConfig:
    """Everything that defines one measured-host configuration."""

    name: str = "cascadelake"
    mode: str = "strict"
    num_cores: int = 5
    link_gbps: float = 100.0
    mtu_bytes: int = 4096
    ring_size_packets: int = 256
    descriptor_pages: int = 64
    nic_buffer_bytes: int = 384 * 1024  # NIC input buffer
    pcie: PcieConfig = field(default_factory=PcieConfig)
    iommu: IommuConfig = field(default_factory=IommuConfig)
    dctcp: DctcpParams = field(default_factory=DctcpParams)
    cpu: CpuCosts = field(default_factory=CpuCosts)
    memory_bandwidth_gbps: float = 46.9
    enable_ddio: bool = False
    # NAPI / interrupt coalescing (DIM-flavoured fixed settings).
    irq_coalesce_ns: float = 6_000.0
    irq_coalesce_frames: int = 32
    gro_max_bytes: int = 65536
    # Deferred-mode flush threshold.
    deferred_flush_threshold: int = 250
    # Long-uptime allocator state: before the experiment, this many
    # page-sized IOVAs are allocated and freed back in shuffled order,
    # filling the per-CPU magazines and depot with addresses spanning a
    # wide extent — the state of a server that has been up for a while.
    # The paper's measured PT-L3 working set ("over 64 entries for our
    # setup", §2.2) implies exactly such a wide circulating extent; a
    # cold-booted allocator is compact and shows smaller PTcache-L3
    # miss rates.  Set to 0 for cold-boot behaviour.
    # ``None`` auto-scales with the configured ring footprint:
    # max(16384, 3 x cores x ring_pages) — a host that has churned a
    # bigger working set has spread its allocator state over a
    # proportionally wider extent.
    allocator_aging_iovas: Optional[int] = None
    aging_seed: int = 42
    # Hard-fault recovery (repro.nic.recovery).  Off by default: the
    # recovery manager adds housekeeping events and only matters when
    # hard faults (wedge-invq / device-wedge) are being injected.
    recovery: bool = False
    # Detector cadence and modeled stage latencies of the reset
    # protocol (quiesce the DMA engine, function-level reset, re-enable
    # after rings rebuild).  The documented MTTR bound in DESIGN.md §14
    # derives from these.
    recovery_check_interval_ns: float = 500_000.0
    recovery_quiesce_ns: float = 100_000.0
    recovery_reset_ns: float = 250_000.0
    recovery_resume_ns: float = 50_000.0

    @property
    def effective_aging_iovas(self) -> int:
        if self.allocator_aging_iovas is not None:
            return self.allocator_aging_iovas
        return max(16384, 3 * self.num_cores * self.ring_pages)

    def __post_init__(self) -> None:
        if self.mode not in MODE_NAMES:
            raise ValueError(f"unknown mode {self.mode!r}; use {MODE_NAMES}")
        if self.mtu_bytes <= 0 or self.ring_size_packets <= 0:
            raise ValueError("mtu and ring size must be positive")
        if self.mode == "fns-huge":
            # Hugepage descriptors are 2 MB; keep at least two
            # descriptors per ring so the NIC never stalls on retire.
            self.descriptor_pages = 512
            if self.ring_pages < 2 * 512:
                self.ring_size_packets = max(
                    self.ring_size_packets,
                    -(-512 // self.pages_per_packet),
                )
        self.dctcp.mtu_bytes = self.mtu_bytes

    # ------------------------------------------------------------------
    # Derived geometry
    # ------------------------------------------------------------------
    @property
    def pages_per_packet(self) -> int:
        """Page slots one MTU packet consumes (CX-5 stride model)."""
        return -(-self.mtu_bytes // PAGE_SIZE)

    @property
    def ring_pages(self) -> int:
        """Page slots posted per core ring.

        The NIC keeps twice the ring size worth of packets mapped (the
        paper's §2.2 working-set formula: 2 x cores x MTU x ring size).
        """
        return 2 * self.ring_size_packets * self.pages_per_packet

    @property
    def descriptors_per_ring(self) -> int:
        return -(-self.ring_pages // self.descriptor_pages)

    @property
    def iova_working_set_bytes(self) -> int:
        """The paper's active-IOVA-space estimate:
        2 x cores x MTU (rounded down to a power of two) x ring size."""
        mtu_rounded = 1 << (self.mtu_bytes.bit_length() - 1)
        return 2 * self.num_cores * mtu_rounded * self.ring_size_packets

    # ------------------------------------------------------------------
    # Presets
    # ------------------------------------------------------------------
    @classmethod
    def cascade_lake(cls, **overrides) -> "HostConfig":
        """The §2.2 default testbed."""
        return cls(name="cascadelake", **overrides)

    @classmethod
    def ice_lake(cls, **overrides) -> "HostConfig":
        """The §4.1 Rx/Tx-interference testbed (DDIO cannot be off)."""
        defaults = dict(
            name="icelake",
            num_cores=8,
            memory_bandwidth_gbps=8 * 25.6,
            enable_ddio=True,
        )
        defaults.update(overrides)
        return cls(**defaults)
