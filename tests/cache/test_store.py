"""ResultCache store: keys, round-trips, corruption, stats, gc."""

import os
import pickle

import pytest

from repro.cache.store import (
    CACHE_DIR_ENV,
    ResultCache,
    default_cache_dir,
)
from repro.experiments.settings import QUICK, RunScale
from repro.parallel import PointSpec


def spec_for(x=1, seed=7, runner="iperf_flows", mode="off"):
    return PointSpec(
        figure="T",
        runner=runner,
        mode=mode,
        x=x,
        label=f"T {mode} x={x}",
        seed=seed,
    )


@pytest.fixture()
def cache(tmp_path, monkeypatch):
    store = ResultCache(str(tmp_path / "store"))
    # Key tests must not depend on the real source tree's bytes.
    monkeypatch.setattr(
        type(store), "fingerprint_for", lambda self: "fp"
    )
    return store


def key(cache, spec, scale=QUICK, **kw):
    kw.setdefault("collect", True)
    kw.setdefault("sample_interval_ns", 100_000.0)
    return cache.key_for(spec, scale, **kw)


class TestKeys:
    def test_key_is_stable(self, cache):
        assert key(cache, spec_for()) == key(cache, spec_for())

    def test_every_coordinate_changes_the_key(self, cache):
        base = key(cache, spec_for())
        assert key(cache, spec_for(x=2)) != base
        assert key(cache, spec_for(seed=8)) != base
        assert key(cache, spec_for(mode="strict")) != base
        assert key(cache, spec_for(runner="other")) != base

    def test_scale_changes_the_key(self, cache):
        other = RunScale(
            name="quick",  # same name, different durations
            warmup_ns=QUICK.warmup_ns + 1,
            measure_ns=QUICK.measure_ns,
            latency_measure_ns=QUICK.latency_measure_ns,
        )
        assert key(cache, spec_for(), scale=other) != key(
            cache, spec_for()
        )

    def test_observation_shape_changes_the_key(self, cache):
        base = key(cache, spec_for())
        assert key(cache, spec_for(), collect=False) != base
        assert key(cache, spec_for(), sample_interval_ns=1.0) != base

    def test_key_takes_no_context_parts(self, cache):
        # Spec files are part of the hashed source tree, so no sweep
        # adds key material of its own.
        with pytest.raises(TypeError):
            key(cache, spec_for(), parts=("spec digest part",))

    def test_code_fingerprint_changes_the_key(self, cache, monkeypatch):
        base = key(cache, spec_for())
        monkeypatch.setattr(
            type(cache), "fingerprint_for", lambda self: "edited"
        )
        assert key(cache, spec_for()) != base


class TestRoundTrip:
    def test_load_store_round_trip(self, cache):
        spec = spec_for()
        k = key(cache, spec)
        assert cache.load(k) is None  # cold
        payload = {"label": spec.label, "index": 0, "final": {"a": 1}}
        assert cache.store(k, {"gbps": 98.5}, payload, spec=spec)
        value, loaded_payload = cache.load(k)
        assert value == {"gbps": 98.5}
        assert loaded_payload == payload
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.stores == 1
        assert cache.stats.bytes_written > 0
        assert cache.stats.bytes_read > 0

    def test_unpicklable_value_is_refused(self, cache):
        k = key(cache, spec_for())
        assert not cache.store(k, lambda: None, None, spec=spec_for())
        assert cache.load(k) is None

    def test_corrupt_entry_is_a_miss_and_removed(self, cache):
        spec = spec_for()
        k = key(cache, spec)
        cache.store(k, 1, None, spec=spec)
        path = cache._path_for(k)
        path.write_bytes(b"not a pickle")
        assert cache.load(k) is None
        assert not path.exists()

    def test_key_mismatch_is_a_miss_and_removed(self, cache):
        spec = spec_for()
        k = key(cache, spec)
        other = key(cache, spec_for(x=2))
        cache.store(k, 1, None, spec=spec)
        # Simulate a hash collision / moved file: entry claims another key.
        entry = pickle.loads(cache._path_for(k).read_bytes())
        entry["key"] = other
        cache._path_for(k).write_bytes(pickle.dumps(entry))
        assert cache.load(k) is None
        assert not cache._path_for(k).exists()


class TestOperability:
    def fill(self, cache, count):
        keys = []
        for x in range(count):
            spec = spec_for(x=x)
            k = key(cache, spec)
            cache.store(k, {"x": x, "pad": "p" * 512}, None, spec=spec)
            keys.append(k)
        return keys

    def test_disk_stats(self, cache):
        self.fill(cache, 3)
        disk = cache.disk_stats()
        assert disk["entries"] == 3
        assert disk["bytes"] > 0

    def test_gc_by_age(self, cache):
        keys = self.fill(cache, 3)
        old = cache._path_for(keys[0])
        ancient = os.stat(old).st_mtime - 10 * 86400
        os.utime(old, (ancient, ancient))
        result = cache.gc(max_age_days=1.0)
        assert result["evicted"] == 1
        assert cache.load(keys[0]) is None
        assert cache.load(keys[1]) is not None

    def test_gc_lru_to_budget(self, cache):
        keys = self.fill(cache, 4)
        # Make entry 2 the least recently used, then squeeze the budget
        # so exactly one entry must go.
        lru = cache._path_for(keys[2])
        past = os.stat(lru).st_mtime - 1000
        os.utime(lru, (past, past))
        total = cache.disk_stats()["bytes"]
        entry_size = total // 4
        result = cache.gc(max_bytes=total - entry_size)
        assert result["evicted"] == 1
        assert cache.load(keys[2]) is None
        for k in (keys[0], keys[1], keys[3]):
            assert cache.load(k) is not None

    def test_clear(self, cache):
        self.fill(cache, 3)
        result = cache.clear()
        assert result["evicted"] == 3
        assert cache.disk_stats()["entries"] == 0


def test_default_cache_dir_env_override(monkeypatch):
    monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
    assert default_cache_dir() == ".repro-cache"
    monkeypatch.setenv(CACHE_DIR_ENV, "/somewhere/else")
    assert default_cache_dir() == "/somewhere/else"
