"""Discrete-event simulation substrate.

Exports the callback-driven engine (:class:`Simulator`), the shared
queue (:class:`FifoQueue`) and deterministic RNG (:class:`SeededRng`).
"""

from .engine import (
    EarlyQuiescenceError,
    Event,
    SimulationError,
    Simulator,
    Watchdog,
    WatchdogError,
)
from .resources import FifoQueue
from .rng import SeededRng

__all__ = [
    "Simulator",
    "Event",
    "SimulationError",
    "EarlyQuiescenceError",
    "Watchdog",
    "WatchdogError",
    "FifoQueue",
    "SeededRng",
]
