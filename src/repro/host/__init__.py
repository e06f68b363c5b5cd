"""Host assembly: configs, CPU model, measured host, peer, testbed."""

from .config import HostConfig, MODE_NAMES
from .cpu import CoreSet
from .remote import RemotePeer
from .server import Host
from .testbed import Testbed, TestbedResult

__all__ = [
    "HostConfig",
    "MODE_NAMES",
    "CoreSet",
    "Host",
    "RemotePeer",
    "Testbed",
    "TestbedResult",
]
