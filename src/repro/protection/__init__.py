"""Protection drivers: IOMMU-off, Linux strict/deferred, F&S + ablations."""

from .base import ProtectionDriver, TxMapping
from .deferred import DeferredDriver
from .passthrough import PassthroughDriver
from .strict import StrictFamilyDriver

__all__ = [
    "ProtectionDriver",
    "TxMapping",
    "PassthroughDriver",
    "StrictFamilyDriver",
    "DeferredDriver",
]
