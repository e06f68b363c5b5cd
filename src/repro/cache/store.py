"""The content-addressed on-disk store behind the result cache.

Layout: one pickle per cell under ``<dir>/objects/<aa>/<key>.pkl``,
where ``key`` is a SHA-256 over everything that determines the cell's
output:

* the cell coordinates (figure, runner, mode, x, label, derived seed);
* the :class:`~repro.experiments.settings.RunScale` durations;
* the observation shape (whether metrics are collected, the sampling
  interval and cap — these change the recorded phase payload);
* the code fingerprint: a SHA-256 over the contents of every ``.py``
  file of the installed ``repro`` package (:func:`tree_fingerprint`).
  Any edit to the package, committed or not, changes every key, so a
  cached cell can never outlive the code that produced it.

An entry stores the runner's pickled return value plus the cell's
recorded metrics phase payload, which a warm sweep adopts into the
parent registry exactly like a worker-process payload, so a warm
sweep's report is byte-identical to a cold one's.

Writes are atomic (temp file + rename) so concurrent ``repro reproduce``
processes can share one store; a hit refreshes the entry's mtime, which
is the recency signal ``gc`` evicts by.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import os
import pickle
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover
    import argparse

    from ..experiments.settings import RunScale
    from ..parallel.spec import PointSpec

__all__ = [
    "CacheStats",
    "ResultCache",
    "default_cache_dir",
    "DEFAULT_GC_MAX_BYTES",
    "CACHE_DIR_ENV",
    "main",
    "tree_fingerprint",
]

SCHEMA = "repro.cache/1"
CACHE_DIR_ENV = "REPRO_CACHE_DIR"
DEFAULT_CACHE_DIR = ".repro-cache"
DEFAULT_GC_MAX_BYTES = 1 << 30  # 1 GiB
# The installed ``repro`` package: this file is ``repro/cache/store.py``.
_PACKAGE_ROOT = Path(__file__).resolve().parent.parent


@functools.cache
def tree_fingerprint() -> str:
    """SHA-256 over every ``.py`` file of the installed package tree.

    Computed once per process: each file's path relative to the
    package and its bytes, in sorted path order, ``__pycache__``
    excluded.
    """
    digest = hashlib.sha256()
    files = sorted(
        p for p in _PACKAGE_ROOT.rglob("*.py") if "__pycache__" not in p.parts
    )
    for path in files:
        digest.update(str(path.relative_to(_PACKAGE_ROOT)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def default_cache_dir() -> str:
    """``$REPRO_CACHE_DIR`` if set, else ``.repro-cache``."""
    return os.environ.get(CACHE_DIR_ENV) or DEFAULT_CACHE_DIR


@dataclass
class CacheStats:
    """Per-run counters; one instance lives on each :class:`ResultCache`."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    bytes_read: int = 0
    bytes_written: int = 0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
        }

    def summary(self) -> str:
        return (
            f"{self.hits} hit(s), {self.misses} miss(es), "
            f"{self.bytes_read} B read, {self.bytes_written} B written"
        )


class ResultCache:
    """A content-addressed store of sweep-cell results."""

    def __init__(self, directory: Optional[str] = None) -> None:
        self.directory = Path(directory or default_cache_dir())
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    # Keys
    # ------------------------------------------------------------------
    def fingerprint_for(self) -> str:
        """The code fingerprint part of a key (patchable in tests)."""
        return tree_fingerprint()

    def key_for(
        self,
        spec: "PointSpec",
        scale: "RunScale",
        *,
        collect: bool,
        sample_interval_ns: Optional[float],
    ) -> str:
        """The content address of one cell."""
        material = {
            "schema": SCHEMA,
            "cell": [
                spec.figure,
                spec.runner,
                spec.mode,
                repr(spec.x),
                spec.label,
                spec.seed,
            ],
            "scale": [
                scale.name,
                scale.warmup_ns,
                scale.measure_ns,
                scale.latency_measure_ns,
            ],
            "observe": [collect, sample_interval_ns],
            "code": self.fingerprint_for(),
        }
        return hashlib.sha256(
            json.dumps(material, sort_keys=True).encode()
        ).hexdigest()

    def _path_for(self, key: str) -> Path:
        return self.directory / "objects" / key[:2] / f"{key}.pkl"

    # ------------------------------------------------------------------
    # Load / store
    # ------------------------------------------------------------------
    def load(self, key: str) -> Optional[tuple]:
        """``(value, phase_payload)`` for ``key``, or ``None`` on miss.

        Any unreadable, corrupt or mismatched entry is a miss (and is
        removed so it cannot fail repeatedly); a hit refreshes the
        entry's mtime for LRU eviction.
        """
        path = self._path_for(key)
        try:
            blob = path.read_bytes()
            entry = pickle.loads(blob)
        except OSError:
            self.stats.misses += 1
            return None
        except Exception:
            self._remove(path)
            self.stats.misses += 1
            return None
        if (
            not isinstance(entry, dict)
            or entry.get("schema") != SCHEMA
            or entry.get("key") != key
        ):
            self._remove(path)
            self.stats.misses += 1
            return None
        try:
            os.utime(path)
        except OSError:
            pass
        self.stats.hits += 1
        self.stats.bytes_read += len(blob)
        return (entry.get("value"), entry.get("phase"))

    def store(
        self,
        key: str,
        value: object,
        phase_payload: Optional[dict],
        *,
        spec: Optional["PointSpec"] = None,
    ) -> bool:
        """Write one entry atomically; ``False`` if it was unpicklable."""
        entry = {
            "schema": SCHEMA,
            "key": key,
            "figure": spec.figure if spec is not None else None,
            "runner": spec.runner if spec is not None else None,
            "label": spec.label if spec is not None else None,
            "value": value,
            "phase": phase_payload,
        }
        try:
            blob = pickle.dumps(entry, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            return False
        path = self._path_for(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, temp = tempfile.mkstemp(
                dir=str(path.parent), prefix=".tmp-", suffix=".pkl"
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(blob)
                os.replace(temp, path)
            except BaseException:
                with contextlib.suppress(OSError):
                    os.unlink(temp)
                raise
        except OSError:
            return False
        self.stats.stores += 1
        self.stats.bytes_written += len(blob)
        return True

    @staticmethod
    def _remove(path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass

    # ------------------------------------------------------------------
    # Operability: stats / gc / clear
    # ------------------------------------------------------------------
    def _entries(self) -> list[tuple[Path, os.stat_result]]:
        objects = self.directory / "objects"
        entries = []
        if not objects.is_dir():
            return entries
        for path in sorted(objects.rglob("*.pkl")):
            if path.name.startswith(".tmp-"):
                continue
            try:
                entries.append((path, path.stat()))
            except OSError:
                continue
        return entries

    def disk_stats(self) -> dict:
        """What is on disk now (as opposed to this run's counters)."""
        entries = self._entries()
        total = sum(stat.st_size for _, stat in entries)
        return {
            "directory": str(self.directory),
            "entries": len(entries),
            "bytes": total,
        }

    def gc(
        self,
        max_bytes: int = DEFAULT_GC_MAX_BYTES,
        max_age_days: Optional[float] = None,
    ) -> dict:
        """Evict entries: stale ones first, then LRU down to the budget.

        ``max_age_days`` drops anything whose mtime (refreshed on every
        hit) is older; afterwards, if the store still exceeds
        ``max_bytes``, the least-recently-used entries go until it
        fits.  Returns ``{"evicted": n, "freed_bytes": b, ...}``.
        """
        entries = self._entries()
        # Wall clock by design: cache age is a host-side, operational
        # concept, not part of any simulated timeline.
        now = time.time()  # noqa: REPRO001
        evicted = 0
        freed = 0
        kept: list[tuple[Path, os.stat_result]] = []
        for path, stat in entries:
            if (
                max_age_days is not None
                and now - stat.st_mtime > max_age_days * 86400.0
            ):
                self._remove(path)
                evicted += 1
                freed += stat.st_size
            else:
                kept.append((path, stat))
        total = sum(stat.st_size for _, stat in kept)
        # Oldest mtime first = least recently used first.
        kept.sort(key=lambda item: (item[1].st_mtime, str(item[0])))
        for path, stat in kept:
            if total <= max_bytes:
                break
            self._remove(path)
            evicted += 1
            freed += stat.st_size
            total -= stat.st_size
        return {
            "directory": str(self.directory),
            "evicted": evicted,
            "freed_bytes": freed,
            "remaining_bytes": total,
        }

    def clear(self) -> dict:
        """Remove every entry; returns the same shape as :meth:`gc`."""
        entries = self._entries()
        freed = sum(stat.st_size for _, stat in entries)
        for path, _stat in entries:
            self._remove(path)
        return {
            "directory": str(self.directory),
            "evicted": len(entries),
            "freed_bytes": freed,
            "remaining_bytes": 0,
        }


def main(args: argparse.Namespace) -> int:
    """``repro cache``: report on, trim or empty the store."""
    cache = ResultCache(args.cache_dir)
    if args.action == "stats":
        disk = cache.disk_stats()
        print(f"cache:   {cache.directory}")
        print(f"entries: {disk['entries']}")
        print(f"bytes:   {disk['bytes']}")
        return 0
    if args.action == "clear":
        result = cache.clear()
        print(
            f"cleared {result['evicted']} entries "
            f"({result['freed_bytes']} bytes) from {cache.directory}"
        )
        return 0
    budget = (
        args.max_bytes if args.max_bytes is not None else DEFAULT_GC_MAX_BYTES
    )
    result = cache.gc(max_bytes=budget, max_age_days=args.max_age_days)
    print(
        f"gc: evicted {result['evicted']} entries "
        f"({result['freed_bytes']} bytes freed, "
        f"{result['remaining_bytes']} bytes remain) in {cache.directory}"
    )
    return 0
