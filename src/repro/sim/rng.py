"""Deterministic random-number helpers.

Every stochastic choice in the library (packet jitter, RPC think times,
workload value sampling) draws from a :class:`SeededRng` created from the
experiment seed, so that a given experiment configuration always produces
the same trace.  Streams can be forked per subsystem to keep one
subsystem's draw count from perturbing another's sequence.
"""

from __future__ import annotations

import hashlib
import random
from collections.abc import MutableSequence

__all__ = ["SeededRng"]


class SeededRng:
    """A named, forkable wrapper around :class:`random.Random`.

    The stream key is derived with a stable hash (not Python's
    randomized ``str.__hash__``), so a given (seed, name) pair produces
    the same stream in every process — experiments are exactly
    reproducible across runs.
    """

    def __init__(self, seed: int, name: str = "root") -> None:
        self.seed = seed
        self.name = name
        digest = hashlib.sha256(f"{seed}/{name}".encode()).digest()
        self._random = random.Random(int.from_bytes(digest[:8], "little"))

    def fork(self, name: str) -> "SeededRng":
        """Derive an independent stream keyed by ``name``."""
        return SeededRng(self.seed, f"{self.name}/{name}")

    def uniform(self, low: float, high: float) -> float:
        return self._random.uniform(low, high)

    def expovariate(self, rate: float) -> float:
        return self._random.expovariate(rate)

    def randint(self, low: int, high: int) -> int:
        return self._random.randint(low, high)

    def random(self) -> float:
        return self._random.random()

    def choice(self, seq):
        return self._random.choice(seq)

    def shuffle(self, seq) -> None:
        self._random.shuffle(seq)

    def sample(self, seq, k: int):
        return self._random.sample(seq, k)

    def shuffle_then_randints(
        self, seq: MutableSequence, low: int, high: int, count: int
    ) -> list[int]:
        """Shuffle ``seq`` in place, then draw ``count`` ints in [low, high].

        Gives the same values, and leaves the generator in the same
        state, as ``shuffle(seq)`` followed by ``count`` calls to
        ``randint(low, high)``, without their per-draw Python calls.
        Both draw an int below ``n`` as CPython does:
        ``getrandbits(n.bit_length())``, drawn again while ``>= n``.
        """
        width = high - low + 1
        if width <= 0:
            raise ValueError(f"empty range [{low}, {high}]")
        getrandbits = self._random.getrandbits
        # ``random.shuffle``: from the top, swap each index with a draw
        # below index + 1; the indices of one bit length at a time.
        top = len(seq) - 1
        while top > 0:
            bits = (top + 1).bit_length()
            bottom = (1 << (bits - 1)) - 1
            for index in range(top, bottom - 1, -1):
                other = getrandbits(bits)
                while other > index:
                    other = getrandbits(bits)
                seq[index], seq[other] = seq[other], seq[index]
            top = bottom - 1
        bits = width.bit_length()
        draws: list[int] = []
        for _ in range(count):
            value = getrandbits(bits)
            while value >= width:
                value = getrandbits(bits)
            draws.append(low + value)
        return draws
