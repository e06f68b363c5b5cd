"""Discrete-event simulation substrate.

Exports the callback-driven engine (:class:`Simulator`) and the
deterministic RNG (:class:`SeededRng`).  The bounded FIFOs a packet
crosses belong to their owners: the switch egress queue to
:class:`repro.net.SwitchPort`, the NIC input buffer to
:class:`repro.nic.Nic`.
"""

from .engine import (
    EarlyQuiescenceError,
    Event,
    SimulationError,
    Simulator,
    Watchdog,
    WatchdogError,
)
from .rng import SeededRng

__all__ = [
    "Simulator",
    "Event",
    "SimulationError",
    "EarlyQuiescenceError",
    "Watchdog",
    "WatchdogError",
    "SeededRng",
]
