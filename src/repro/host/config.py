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

__all__ = ["HostConfig", "MODE_NAMES", "DEFAULT_MTU_BYTES"]

MODE_NAMES = (
    "off",
    "strict",
    "fns",
    "fns-huge",
    "linux+A",
    "linux+B",
    "deferred",
)

DEFAULT_MTU_BYTES = 4096


@dataclass
class HostConfig:
    """The measured-host settings that some figure, study, app or fault
    row varies; every other calibration value is a constant beside the
    code that reads it."""

    mode: str = "strict"
    num_cores: int = 5
    mtu_bytes: int = DEFAULT_MTU_BYTES
    ring_size_packets: int = 256
    descriptor_pages: int = 64
    iommu: IommuConfig = field(default_factory=IommuConfig)
    memory_bandwidth_gbps: float = 46.9
    enable_ddio: bool = False
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
    # Hard-fault recovery (repro.nic.recovery).  Off by default: the
    # recovery manager adds housekeeping events and only matters when
    # hard faults (wedge-invq / device-wedge) are being injected.
    recovery: bool = False

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
        return cls(**overrides)

    @classmethod
    def ice_lake(cls, **overrides) -> "HostConfig":
        """The §4.1 Rx/Tx-interference testbed (DDIO cannot be off)."""
        defaults = dict(
            num_cores=8,
            memory_bandwidth_gbps=8 * 25.6,
            enable_ddio=True,
        )
        defaults.update(overrides)
        return cls(**defaults)
