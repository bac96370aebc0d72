"""Machine-readable CLI output: cache info --json, trace report --json."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.core import FlowCache, Tracer
from repro.core.ppa import FailedRun
from repro.core.stages import StageStore

CACHE_INFO_KEYS = {
    "directory", "exists", "entries", "total_bytes", "oldest_mtime",
    "newest_mtime", "stale_tmp_files", "max_bytes", "live_locks",
    "stale_locks",
}


class TestCacheInfoJson:
    def test_missing_directory(self, tmp_path, capsys):
        assert main(["cache", "info", "--json",
                     "--cache-dir", str(tmp_path / "nope")]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == CACHE_INFO_KEYS
        assert payload["exists"] is False
        assert payload["entries"] == 0

    def test_counts_entries_and_blobs(self, tmp_path, capsys):
        cache = FlowCache(tmp_path)
        StageStore(cache).put_result(
            "ab" + "0" * 62,
            FailedRun(label="x", target_utilization=0.9, reason="tap"))
        cache.put("cd" + "1" * 62, "nominal", {"some": "payload"})
        assert main(["cache", "info", "--json",
                     "--cache-dir", str(tmp_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["exists"] is True
        assert payload["entries"] == 2  # every artifact, results included
        assert payload["total_bytes"] > 0

    def test_text_mode_mentions_blobs(self, tmp_path, capsys):
        cache = FlowCache(tmp_path)
        cache.put("cd" + "1" * 62, "nominal", [1, 2, 3])
        assert main(["cache", "info", "--cache-dir", str(tmp_path)]) == 0
        assert "artifact blobs: 1" in capsys.readouterr().out


class TestTraceReportJson:
    @pytest.fixture()
    def trace_dir(self, tmp_path):
        tracer = Tracer(label="unit")
        with tracer.span("synth"):
            pass
        tracer.count("mc.samples", 3)
        tracer.finish().write(tmp_path / "run-0000.jsonl")
        return tmp_path

    def test_report_schema(self, trace_dir, capsys):
        assert main(["trace", "report", "--json", str(trace_dir)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"path", "traces", "runs", "total_s",
                                "stage_time_s", "counters"}
        assert payload["traces"] == 1
        assert payload["counters"]["mc.samples"] == 3
        assert "synth" in payload["stage_time_s"]

    def test_empty_directory_fails_to_stderr(self, tmp_path, capsys):
        assert main(["trace", "report", "--json", str(tmp_path)]) == 1
        out, err = capsys.readouterr()
        # stdout stays parseable-or-empty in json mode.
        assert out == ""
        assert "no traces" in err
