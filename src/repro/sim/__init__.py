"""Discrete-event simulation substrate.

Exports the callback-driven engine (:class:`Simulator`), shared
resources (:class:`FifoQueue`, :class:`TokenBucketPacer`) and
deterministic RNG (:class:`SeededRng`).
"""

from .engine import (
    EarlyQuiescenceError,
    Event,
    SimulationError,
    Simulator,
    Watchdog,
    WatchdogError,
)
from .resources import FifoQueue, TokenBucketPacer
from .rng import SeededRng

__all__ = [
    "Simulator",
    "Event",
    "SimulationError",
    "EarlyQuiescenceError",
    "Watchdog",
    "WatchdogError",
    "FifoQueue",
    "TokenBucketPacer",
    "SeededRng",
]
