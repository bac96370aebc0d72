"""Byte quota and LRU eviction on the content-addressed store."""

from __future__ import annotations

import os
import time

from repro.core import FlowCache, telemetry
from repro.core.cache import MAX_BYTES_ENV, default_max_bytes
from repro.core.faults import FAULTS_ENV
from repro.core.ppa import FailedRun
from repro.core.stages import StageStore

KEYS = [f"{i:02x}" + "0" * 62 for i in range(16)]


def _put(cache: FlowCache, key: str) -> None:
    StageStore(cache).put_result(
        key, FailedRun(label="x", target_utilization=0.9, reason="tap"))


def _path(cache: FlowCache, key: str):
    return cache._path(key, "result")


def _entry_size(tmp_path) -> int:
    # Entries of one result are the same size; _SLACK keeps quota
    # tests that want "N entries fit, N+1 do not" off the boundary.
    probe = FlowCache(tmp_path / "probe")
    _put(probe, KEYS[0])
    return _path(probe, KEYS[0]).stat().st_size


_SLACK = 16


def _age(cache: FlowCache, key: str, seconds: float) -> None:
    """Backdate one entry's access journal deterministically."""
    old = time.time() - seconds
    os.utime(_path(cache, key), (old, old))


class TestDefaultMaxBytes:
    def test_unset_is_unbounded(self, monkeypatch):
        monkeypatch.delenv(MAX_BYTES_ENV, raising=False)
        assert default_max_bytes() is None

    def test_env_value(self, monkeypatch):
        monkeypatch.setenv(MAX_BYTES_ENV, "1048576")
        assert default_max_bytes() == 1048576

    def test_scientific_notation(self, monkeypatch):
        monkeypatch.setenv(MAX_BYTES_ENV, "5e6")
        assert default_max_bytes() == 5_000_000

    def test_garbage_and_nonpositive_are_unbounded(self, monkeypatch):
        monkeypatch.setenv(MAX_BYTES_ENV, "lots")
        assert default_max_bytes() is None
        monkeypatch.setenv(MAX_BYTES_ENV, "0")
        assert default_max_bytes() is None
        monkeypatch.setenv(MAX_BYTES_ENV, "0.5")
        assert default_max_bytes() is None

    def test_constructor_overrides_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(MAX_BYTES_ENV, "123")
        assert FlowCache(tmp_path, max_bytes=456).max_bytes == 456
        assert FlowCache(tmp_path).max_bytes == 123
        assert FlowCache(tmp_path, max_bytes=0).max_bytes is None


class TestLruEviction:
    def test_unbounded_never_evicts(self, tmp_path):
        cache = FlowCache(tmp_path)
        for key in KEYS[:6]:
            _put(cache, key)
        assert cache.info()["entries"] == 6
        assert cache.evictions == 0

    def test_oldest_entries_evicted_first(self, tmp_path):
        size = _entry_size(tmp_path)
        cache = FlowCache(tmp_path, max_bytes=3 * size + _SLACK)
        for i, key in enumerate(KEYS[:3]):
            _put(cache, key)
            _age(cache, key, seconds=300 - i)  # KEYS[0] is coldest
        _put(cache, KEYS[3])
        assert cache.evictions == 1
        assert not _path(cache, KEYS[0]).exists()
        assert all(_path(cache, k).exists() for k in KEYS[1:4])

    def test_hit_bumps_recency(self, tmp_path):
        size = _entry_size(tmp_path)
        cache = FlowCache(tmp_path, max_bytes=3 * size + _SLACK)
        for i, key in enumerate(KEYS[:3]):
            _put(cache, key)
            _age(cache, key, seconds=300 - i)
        assert StageStore(cache).result(KEYS[0]) is not None  # now hottest
        _put(cache, KEYS[3])
        assert _path(cache, KEYS[0]).exists()
        assert not _path(cache, KEYS[1]).exists()  # next-coldest went

    def test_locked_keys_are_pinned(self, tmp_path):
        size = _entry_size(tmp_path)
        cache = FlowCache(tmp_path, max_bytes=2 * size + _SLACK)
        _put(cache, KEYS[0])
        _age(cache, KEYS[0], seconds=300)  # coldest, but pinned below
        lock = cache.locks.lock(KEYS[0])
        assert lock.try_acquire()
        _put(cache, KEYS[1])
        _age(cache, KEYS[1], seconds=200)
        _put(cache, KEYS[2])
        assert _path(cache, KEYS[0]).exists()  # pinned survived
        assert not _path(cache, KEYS[1]).exists()  # LRU fell on the next
        lock.release()

    def test_blobs_count_toward_quota(self, tmp_path):
        probe = FlowCache(tmp_path / "probe")
        payload = {"stage": "sta", "artifact": {"pad": "y" * 256}}
        probe.put(KEYS[0], "stage-sta", payload)
        blob_size = probe._path(KEYS[0], "stage-sta").stat().st_size
        cache = FlowCache(tmp_path / "store", max_bytes=blob_size)
        cache.put(KEYS[0], "stage-sta", payload)
        cold = cache._path(KEYS[0], "stage-sta")
        old = time.time() - 300
        os.utime(cold, (old, old))
        cache.put(KEYS[1], "stage-sta", payload)
        assert cache.evictions >= 1
        assert not cold.exists()

    def test_eviction_counted_on_trace(self, tmp_path):
        size = _entry_size(tmp_path)
        cache = FlowCache(tmp_path, max_bytes=size + _SLACK)
        _put(cache, KEYS[0])
        _age(cache, KEYS[0], seconds=300)
        victim_bytes = _path(cache, KEYS[0]).stat().st_size
        tracer = telemetry.Tracer(label="t")
        with telemetry.activate(tracer):
            _put(cache, KEYS[1])
        trace = tracer.finish()
        assert trace.counters.get("cache.evicted") == 1
        assert trace.counters.get("cache.evicted_bytes") == victim_bytes

    def test_evicted_entry_is_a_clean_miss(self, tmp_path):
        size = _entry_size(tmp_path)
        cache = FlowCache(tmp_path, max_bytes=size + _SLACK)
        _put(cache, KEYS[0])
        _age(cache, KEYS[0], seconds=300)
        _put(cache, KEYS[1])
        assert StageStore(cache).result(KEYS[0]) is None
        assert cache.corrupt == 0
        assert cache.fsck()["clean"]


class TestEvictRaceFault:
    def test_evict_fault_flushes_unpinned(self, tmp_path, monkeypatch):
        cache = FlowCache(tmp_path)  # unbounded: only the fault evicts
        _put(cache, KEYS[0])
        _put(cache, KEYS[1])
        lock = cache.locks.lock(KEYS[1])
        assert lock.try_acquire()
        monkeypatch.setenv(FAULTS_ENV, "cache.evict:corrupt")
        _put(cache, KEYS[2])
        assert not _path(cache, KEYS[0]).exists()
        assert _path(cache, KEYS[1]).exists()  # pinned even under the fault
        lock.release()
        monkeypatch.delenv(FAULTS_ENV)
        assert cache.fsck()["clean"]  # mass eviction never corrupts
