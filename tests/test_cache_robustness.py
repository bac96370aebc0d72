"""FlowCache integrity: corrupt-entry handling, tmp hygiene."""

from __future__ import annotations

from repro.core import FlowCache, FlowConfig, SweepRunner
from repro.core import telemetry
from repro.core.cache import netlist_fingerprint
from repro.core.flow import artifact_key
from repro.core.ppa import FailedRun
from repro.core.stages import StageStore

from .golden_cases import MultiplierFactory

FACTORY = MultiplierFactory(4)
BASE = FlowConfig(arch="ffet", backside_pin_fraction=0.5, utilization=0.5)
KEY = "ab" + "0" * 62


def _seed_entry(cache: FlowCache) -> None:
    StageStore(cache).put_result(
        KEY, FailedRun(label="x", target_utilization=0.9, reason="tap"))


def _get(cache: FlowCache):
    return StageStore(cache).result(KEY)


class TestChecksum:
    def test_intact_entry_round_trips(self, tmp_path):
        cache = FlowCache(tmp_path)
        _seed_entry(cache)
        assert isinstance(_get(cache), FailedRun)
        assert cache.corrupt == 0

    def test_tampered_data_is_detected_and_deleted(self, tmp_path):
        cache = FlowCache(tmp_path)
        _seed_entry(cache)
        path = cache._path(KEY, "result")
        path.write_bytes(path.read_bytes()[:-1])  # STOP opcode edited off
        assert _get(cache) is None
        assert cache.corrupt == 1
        assert not path.exists()  # corrupt entries are deleted, not kept

    def test_unparseable_entry_counts_as_corrupt(self, tmp_path):
        cache = FlowCache(tmp_path)
        path = cache._path(KEY, "result")
        path.parent.mkdir(parents=True)
        path.write_text("{torn write")
        assert _get(cache) is None
        assert cache.corrupt == 1
        assert not path.exists()

    def test_absent_entry_is_a_plain_miss(self, tmp_path):
        cache = FlowCache(tmp_path)
        tracer = telemetry.Tracer(label="t")
        with telemetry.activate(tracer):
            assert _get(cache) is None
        assert tracer.finish().counters.get("cache.misses") == 1
        assert cache.corrupt == 0

    def test_corruption_counted_on_trace(self, tmp_path):
        cache = FlowCache(tmp_path)
        path = cache._path(KEY, "result")
        path.parent.mkdir(parents=True)
        path.write_text("garbage")
        tracer = telemetry.Tracer(label="t")
        with telemetry.activate(tracer):
            _get(cache)
        trace = tracer.finish()
        assert trace.counters.get("cache.corrupt") == 1

    def test_corrupt_entry_recomputed_through_runner(self, tmp_path):
        """End to end: a damaged entry is replaced by a fresh result."""
        cache = FlowCache(tmp_path)
        runner = SweepRunner(jobs=1, cache=cache)
        first = runner.run_one(FACTORY, BASE)
        key = artifact_key("result", BASE, netlist_fingerprint(FACTORY()))
        cache._path(key, "result").write_text("bit rot")
        second = runner.run_one(FACTORY, BASE)
        assert second == first
        assert cache.corrupt == 1
        assert runner.stats.cache_hits == 0
        third = runner.run_one(FACTORY, BASE)
        assert third == first
        assert runner.stats.cache_hits == 1  # rewritten entry serves again


class TestTmpHygiene:
    def _strand_tmp(self, cache: FlowCache):
        stale = cache._path(KEY, "result").with_name("deadbeef.tmp.12345")
        stale.parent.mkdir(parents=True, exist_ok=True)
        stale.write_text("{half-written")
        return stale

    def test_info_reports_stale_tmp_files(self, tmp_path):
        cache = FlowCache(tmp_path)
        _seed_entry(cache)
        assert cache.info()["stale_tmp_files"] == 0
        self._strand_tmp(cache)
        assert cache.info()["stale_tmp_files"] == 1
        assert cache.info()["entries"] == 1  # tmp files are not entries

    def test_clear_sweeps_stale_tmp_files(self, tmp_path):
        cache = FlowCache(tmp_path)
        _seed_entry(cache)
        stale = self._strand_tmp(cache)
        assert cache.clear() == 2  # one entry + one stale tmp
        assert not stale.exists()
        assert cache.info()["entries"] == 0
