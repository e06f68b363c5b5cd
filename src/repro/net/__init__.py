"""Transport substrate: packets, DCTCP, and the switch."""

from .dctcp import DctcpReceiver, DctcpSender, RtoTimer
from .packet import ACK_SIZE_BYTES, Packet, PacketKind
from .switch import SwitchPort

__all__ = [
    "Packet",
    "PacketKind",
    "ACK_SIZE_BYTES",
    "DctcpSender",
    "DctcpReceiver",
    "RtoTimer",
    "SwitchPort",
]
