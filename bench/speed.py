"""Machine speed, measured beside every sample.

The VM the benchmark runs on shares its CPUs with other tenants, and
its speed drifts: the same pure-Python work takes up to twice as long
when the host is busy, in phases that last minutes, and each vCPU
drifts on its own (each shares a physical core with a different
neighbour).  A fastest-of or a median over one run cannot remove a
slowdown that covers the whole run.  So while the benchmark times a
``repro`` child pinned to one CPU, a :class:`SpeedProbe` thread pinned
to the same CPU times a fixed reference burst (:func:`reference_burst`,
stdlib only, independent of ``src/``) every :data:`PERIOD_S` seconds,
and each sample is scaled by how fast that CPU ran the reference
during the sample:

    scaled = raw * REFERENCE_S / mean(reference bursts in the sample)

Both the child's time and the bursts are CPU time (the guest kernel
leaves out the time the host ran something else on the vCPU, steal),
so neither steal nor the two sharing the CPU lengthens them.  The
mean, not the median: a sample's time is the sum of its work over the
speed at each moment, so a slow spell adds to it in proportion to its
length, as it adds to the mean.  (Over 18 cold ``fig7`` runs whose raw
walls spread 0.25, the scaled walls spread 0.02 with the mean and 0.20
with the median.)  A scaled time reads as seconds on a CPU that runs
the burst in :data:`REFERENCE_S`, about the quiet speed of the 2-vCPU
VM in ``README.md``.  A change to the program moves the raw time and
not the reference, so it moves the scaled time by the same share.
"""

from __future__ import annotations

import bisect
import heapq
import os
import statistics
import threading
import time
from typing import Optional

__all__ = [
    "REFERENCE_S",
    "PERIOD_S",
    "reference_burst",
    "measured_cpu",
    "steal_s",
    "SpeedProbe",
]

# The burst's CPU time on a quiet machine; sets the scale only.
REFERENCE_S = 0.0035
PERIOD_S = 0.1
# Bursts this close to a sample still describe its machine speed.
PAD_S = 0.5
# A sample shorter than the period borrows the nearest bursts.
MIN_BURSTS = 5

_TABLE_SIZE = 1 << 15
_TABLE = {key: (key * 2654435761) & 0xFFFF for key in range(_TABLE_SIZE)}


class _Event:
    __slots__ = ("at", "key")

    def __init__(self, at: int, key: int) -> None:
        self.at = at
        self.key = key

    def __lt__(self, other: "_Event") -> bool:
        return self.at < other.at


def reference_burst() -> int:
    """Fixed interpreter work shaped like a discrete-event simulation.

    A heap of events, each popped, used to look up a table larger than
    the L2 cache, rescheduled and pushed back.  Deterministic; returns a
    checksum so nothing is optimised away.
    """
    table = _TABLE
    mask = _TABLE_SIZE - 1
    heap = [_Event(index * 7 % 257, index * 131 & mask) for index in range(512)]
    heapq.heapify(heap)
    checksum = 0
    for _ in range(3_000):
        event = heapq.heappop(heap)
        value = table[event.key]
        checksum = (checksum + value) & 0xFFFFFFFF
        event.at += 1 + (value & 63)
        event.key = (event.key * 17 + value) & mask
        heapq.heappush(heap, event)
    return checksum


def measured_cpu() -> int:
    """The CPU that the measured child and the probe share."""
    return max(os.sched_getaffinity(0))


def steal_s(cpu: int) -> Optional[float]:
    """Seconds the host has stolen from ``cpu`` since boot, if known."""
    try:
        with open("/proc/stat") as stat:
            for line in stat:
                fields = line.split()
                if fields[0] == f"cpu{cpu}":
                    return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        pass
    return None


class SpeedProbe:
    """Times :func:`reference_burst` in a thread while the context is open.

    ``with SpeedProbe(cpu) as probe:`` starts the thread, pinned to
    ``cpu``; leaving the block stops it and waits for it.
    :meth:`scale` turns a sample's interval (``time.perf_counter``
    readings) into its scale factor.  ``steal_share`` is the share of
    the block's wall time the host stole from ``cpu`` (``None`` when the
    kernel does not say), for the record.
    """

    def __init__(self, cpu: int, period_s: float = PERIOD_S) -> None:
        self.cpu = cpu
        self.period_s = period_s
        self.steal_share: Optional[float] = None
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._times: list[float] = []
        self._bursts: list[float] = []
        self._opened = (0.0, None)

    def __enter__(self) -> "SpeedProbe":
        self._opened = (time.perf_counter(), steal_s(self.cpu))
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        opened, stolen = self._opened
        now = steal_s(self.cpu)
        if stolen is not None and now is not None:
            self.steal_share = (now - stolen) / (time.perf_counter() - opened)

    def _loop(self) -> None:
        # Linux applies this to the calling thread only.
        os.sched_setaffinity(0, {self.cpu})
        clock, cpu_clock = time.perf_counter, time.thread_time
        while not self._stop.wait(self.period_s):
            at = clock()
            start = cpu_clock()
            reference_burst()
            spent = cpu_clock() - start
            # Appends only; readers copy the lists under the GIL.
            self._bursts.append(spent)
            self._times.append(at)

    def bursts(self) -> list[float]:
        """Every burst time so far."""
        return list(self._bursts)

    def reference(self, start: float, end: float) -> float:
        """Mean burst time within ``PAD_S`` of ``[start, end]``."""
        times = list(self._times)
        bursts = self._bursts[: len(times)]
        if not times:
            raise RuntimeError("the speed probe has not timed a burst yet")
        low = bisect.bisect_left(times, start - PAD_S)
        high = bisect.bisect_right(times, end + PAD_S)
        if high - low < MIN_BURSTS:
            middle = bisect.bisect_left(times, (start + end) / 2)
            low = max(0, middle - MIN_BURSTS // 2)
            high = min(len(times), low + MIN_BURSTS)
            low = max(0, high - MIN_BURSTS)
        return statistics.fmean(bursts[low:high])

    def scale(self, start: float, end: float) -> float:
        """Factor that turns a raw time in ``[start, end]`` into a scaled one."""
        return REFERENCE_S / self.reference(start, end)
