"""`FlowCache.fsck` / `repro cache fsck`: audit, repair, exit codes."""

from __future__ import annotations

import json
import multiprocessing

from repro.cli import main
from repro.core import FlowCache
from repro.core.faults import FAULTS_ENV
from repro.core.ppa import FailedRun
from repro.core.stages import StageStore

KEY = "ab" + "0" * 62


def _dead_pid() -> int:
    proc = multiprocessing.Process(target=lambda: None)
    proc.start()
    pid = proc.pid
    proc.join()
    return pid


def _seed(cache: FlowCache, key: str = KEY) -> None:
    StageStore(cache).put_result(
        key, FailedRun(label="x", target_utilization=0.9, reason="tap"))


def _kinds(report: dict) -> list[str]:
    return sorted(d["kind"] for d in report["defects"])


class TestFsck:
    def test_clean_store(self, tmp_path):
        cache = FlowCache(tmp_path)
        _seed(cache)
        cache.put(KEY, "stage-routing", {"stage": "routing",
                                         "artifact": {"x": 1}})
        report = cache.fsck()
        assert report["clean"]
        assert report["entries"] == 2
        assert report["defects"] == []

    def test_corrupt_entry_detected(self, tmp_path):
        cache = FlowCache(tmp_path)
        _seed(cache)
        path = cache._path(KEY, "result")
        path.write_bytes(path.read_bytes()[:-1])  # edited: STOP opcode gone
        report = cache.fsck()
        assert _kinds(report) == ["corrupt_blob"]
        assert not report["clean"]
        assert path.exists()  # plain fsck never mutates

    def test_truncated_blob_detected(self, tmp_path):
        cache = FlowCache(tmp_path)
        cache.put(KEY, "stage-sta", {"stage": "sta", "artifact": {}})
        blob = cache._path(KEY, "stage-sta")
        blob.write_bytes(blob.read_bytes()[:10])  # torn write
        report = cache.fsck()
        assert _kinds(report) == ["corrupt_blob"]

    def test_stale_tmp_detected(self, tmp_path):
        cache = FlowCache(tmp_path)
        _seed(cache)
        stray = cache._path(KEY, "result").with_name(
            f"x.pkl.tmp.{_dead_pid()}.0")
        stray.write_text("{half")
        report = cache.fsck()
        assert _kinds(report) == ["stale_tmp"]

    def test_live_tmp_is_not_a_defect(self, tmp_path):
        import os
        cache = FlowCache(tmp_path)
        _seed(cache)
        cache._path(KEY, "result").with_name(
            f"x.pkl.tmp.{os.getpid()}.0").write_text("{")
        assert cache.fsck()["clean"]

    def test_stale_lock_detected(self, tmp_path):
        import socket
        import time
        cache = FlowCache(tmp_path)
        _seed(cache)
        lock_dir = tmp_path / "locks"
        lock_dir.mkdir()
        (lock_dir / f"{KEY}.lock").write_text(json.dumps({
            "pid": _dead_pid(), "host": socket.gethostname(),
            "created": time.time()}))
        report = cache.fsck()
        assert _kinds(report) == ["stale_lock"]

    def test_live_lock_is_counted_not_flagged(self, tmp_path):
        cache = FlowCache(tmp_path)
        _seed(cache)
        lock = cache.locks.lock(KEY)
        assert lock.try_acquire()
        report = cache.fsck()
        assert report["clean"]
        assert report["live_locks"] == 1
        lock.release()

    def test_repair_removes_defects(self, tmp_path):
        cache = FlowCache(tmp_path)
        _seed(cache)
        bad = cache._path(KEY, "result")
        bad.write_text("bit rot")
        report = cache.fsck(repair=True)
        assert report["repaired"] == 1
        assert not bad.exists()
        assert cache.fsck()["clean"]


class TestFsckCli:
    def test_clean_exits_zero(self, tmp_path):
        cache = FlowCache(tmp_path)
        _seed(cache)
        assert main(["cache", "fsck", "--cache-dir", str(tmp_path)]) == 0

    def test_defect_exits_nonzero_then_repair(self, tmp_path, capsys):
        cache = FlowCache(tmp_path)
        _seed(cache)
        cache._path(KEY, "result").write_text("bit rot")
        assert main(["cache", "fsck", "--cache-dir", str(tmp_path)]) == 1
        assert "corrupt_blob" in capsys.readouterr().out
        assert main(["cache", "fsck", "--repair",
                     "--cache-dir", str(tmp_path)]) == 0
        assert main(["cache", "fsck", "--cache-dir", str(tmp_path)]) == 0

    def test_json_report_schema(self, tmp_path, capsys):
        cache = FlowCache(tmp_path)
        _seed(cache)
        cache._path(KEY, "result").write_text("bit rot")
        assert main(["cache", "fsck", "--json",
                     "--cache-dir", str(tmp_path)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"directory", "entries", "live_locks",
                                "defects", "repaired", "clean"}
        assert payload["defects"][0]["kind"] == "corrupt_blob"

    def test_missing_directory_is_clean(self, tmp_path):
        assert main(["cache", "fsck",
                     "--cache-dir", str(tmp_path / "nope")]) == 0


class TestCacheFaultPoints:
    """Injected store faults leave exactly the damage fsck must find."""

    def test_torn_write_fault_detected_and_survived(self, tmp_path,
                                                    monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "cache.put:corrupt")
        cache = FlowCache(tmp_path)
        _seed(cache)  # lands truncated at the final path
        assert not cache.fsck()["clean"]
        # A reader survives: the torn entry reads as corrupt-then-miss.
        assert StageStore(cache).result(KEY) is None
        assert cache.corrupt == 1
        monkeypatch.delenv(FAULTS_ENV)
        _seed(cache)  # healthy rewrite
        assert isinstance(StageStore(cache).result(KEY), FailedRun)
        assert cache.fsck()["clean"]

    def test_torn_blob_fault_detected_and_survived(self, tmp_path,
                                                   monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "cache.put:corrupt")
        cache = FlowCache(tmp_path)
        cache.put(KEY, "stage-sta", {"stage": "sta", "artifact": {}})
        assert [d["kind"] for d in cache.fsck()["defects"]] == ["corrupt_blob"]
        assert cache.get(KEY, "stage-sta") is None  # deleted on read
        assert cache.fsck()["clean"]

    def test_cache_faults_do_not_disable_the_store(self, tmp_path,
                                                   monkeypatch):
        from repro.core import faults as faults_mod
        monkeypatch.setenv(FAULTS_ENV, "cache.put:corrupt,lock.acquire:die")
        assert not faults_mod.faults_active()
        monkeypatch.setenv(FAULTS_ENV, "placement:raise,cache.put:corrupt")
        assert faults_mod.faults_active()  # the flow clause still counts
