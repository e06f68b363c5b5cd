"""PCIe link and DMA pipeline models."""

from .link import (
    MAX_PAYLOAD_BYTES,
    PCIE_GBPS,
    RX_LANES,
    TX_LANES,
    DmaPipeline,
    transactions,
)

__all__ = [
    "DmaPipeline",
    "MAX_PAYLOAD_BYTES",
    "PCIE_GBPS",
    "RX_LANES",
    "TX_LANES",
    "transactions",
]
