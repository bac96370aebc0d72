"""SweepRunner: pool fan-out, fallbacks, ordering, stats, caching."""

from __future__ import annotations

import os

import pytest

from repro.core import (
    FLOW_STAGES,
    FailedRun,
    FlowCache,
    FlowConfig,
    PPAResult,
    SweepRunner,
    resolve_jobs,
    results_to_json,
)
from repro.core import telemetry
from repro.core.runner import JOBS_ENV, run_once
from repro.core.sweeps import utilization_sweep
from repro.synth import generate_multiplier

from .golden_cases import MultiplierFactory

FACTORY = MultiplierFactory(4)
BASE = FlowConfig(arch="ffet", backside_pin_fraction=0.5)
#: Utilization beyond the Power-Tap-Cell limit: placement must fail.
IMPOSSIBLE_UTIL = 0.99


class TestResolveJobs:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "7")
        assert resolve_jobs(3) == 3

    def test_env_default(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "5")
        assert resolve_jobs(None) == 5

    def test_serial_without_env(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV, raising=False)
        assert resolve_jobs(None) == 1

    def test_garbage_env_falls_back_to_serial(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "lots")
        assert resolve_jobs(None) == 1

    def test_zero_means_all_cores(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV, raising=False)
        assert resolve_jobs(0) == (os.cpu_count() or 1)


class TestSerialPath:
    def test_jobs1_matches_try_run(self):
        configs = [BASE.with_(utilization=u) for u in (0.5, 0.6)]
        runner = SweepRunner(jobs=1)
        results = runner.run_many(FACTORY, configs)
        expected = [run_once(FACTORY, c) for c in configs]
        assert results == expected
        assert runner.stats.parallel_runs == 0
        assert runner.stats.executed == 2

    def test_single_config_stays_serial_even_with_jobs(self):
        runner = SweepRunner(jobs=4)
        runner.run_many(FACTORY, [BASE.with_(utilization=0.5)])
        assert runner.stats.parallel_runs == 0

    def test_wall_time_captured(self):
        runner = SweepRunner(jobs=1)
        rec = runner.run_records(FACTORY, [BASE.with_(utilization=0.5)])[0]
        assert rec.wall_time_s > 0
        assert not rec.cache_hit


class TestPoolPath:
    def test_placement_error_becomes_failed_run(self):
        """A failing worker yields a FailedRun without poisoning the pool."""
        configs = [BASE.with_(utilization=u)
                   for u in (0.5, IMPOSSIBLE_UTIL, 0.6)]
        runner = SweepRunner(jobs=2)
        results = runner.run_many(FACTORY, configs)
        assert isinstance(results[0], PPAResult)
        assert isinstance(results[1], FailedRun)
        assert results[1].target_utilization == IMPOSSIBLE_UTIL
        assert isinstance(results[2], PPAResult)
        assert runner.stats.failed == 1
        assert runner.stats.parallel_runs == 3

    def test_result_order_is_submission_order(self):
        utils = (0.66, 0.5, 0.6, 0.56)
        runner = SweepRunner(jobs=2)
        results = runner.run_many(
            FACTORY, [BASE.with_(utilization=u) for u in utils])
        assert [r.target_utilization for r in results] == list(utils)
        # And identical to the serial reference, bit for bit.
        assert results == [run_once(FACTORY, BASE.with_(utilization=u))
                           for u in utils]

    def test_identical_configs_in_one_batch_execute_once(self):
        """In-flight dedup needs no store: the duplicate settles from the
        one execution, in submission order."""
        config = BASE.with_(utilization=0.5)
        runner = SweepRunner(jobs=2)
        records = runner.run_records(FACTORY, [config, config])
        assert [r.via for r in records] == ["executed", "dedup"]
        assert records[0].result == records[1].result
        assert runner.stats.executed == 1 and runner.stats.cache_hits == 1

    def test_unpicklable_factory_falls_back_to_serial(self):
        runner = SweepRunner(jobs=2)
        results = runner.run_many(
            lambda: generate_multiplier(4),
            [BASE.with_(utilization=u) for u in (0.5, 0.6)])
        assert all(isinstance(r, PPAResult) for r in results)
        assert runner.stats.serial_fallbacks == 1
        assert runner.stats.parallel_runs == 0


class TestCachedPath:
    def test_second_sweep_is_all_hits(self, tmp_path):
        runner = SweepRunner(jobs=1, cache=FlowCache(tmp_path))
        utils = (0.5, 0.6)
        first = utilization_sweep(FACTORY, BASE, utils, runner=runner)
        second = utilization_sweep(FACTORY, BASE, utils, runner=runner)
        assert first == second
        assert runner.stats.cache_hits == 2
        assert runner.stats.executed == 2

    def test_failed_runs_are_cached_too(self, tmp_path):
        runner = SweepRunner(jobs=1, cache=FlowCache(tmp_path))
        config = BASE.with_(utilization=IMPOSSIBLE_UTIL)
        first = runner.run_one(FACTORY, config)
        second = runner.run_one(FACTORY, config)
        assert isinstance(first, FailedRun)
        assert second == first
        assert runner.stats.cache_hits == 1

    def test_tag_only_difference_hits_same_entry(self, tmp_path):
        runner = SweepRunner(jobs=1, cache=FlowCache(tmp_path))
        runner.run_one(FACTORY, BASE.with_(utilization=0.5, tag="a"))
        runner.run_one(FACTORY, BASE.with_(utilization=0.5, tag="b"))
        assert runner.stats.cache_hits == 1
        assert runner.stats.executed == 1

    def test_stats_summary_mentions_counts(self, tmp_path):
        runner = SweepRunner(jobs=1, cache=FlowCache(tmp_path))
        runner.run_many(FACTORY, [BASE.with_(utilization=0.5)] * 2)
        text = runner.stats.summary()
        assert "1 cached" in text and "1 executed" in text


class TestParallelDeterminism:
    """--jobs must never change results or the traces' stage structure."""

    UTILS = (0.5, 0.56, 0.6, 0.66)

    def test_jobs1_and_jobs4_are_byte_identical(self, tmp_path):
        configs = [BASE.with_(utilization=u) for u in self.UTILS]
        serial = SweepRunner(jobs=1, trace_dir=tmp_path / "serial")
        parallel = SweepRunner(jobs=4, trace_dir=tmp_path / "parallel")
        runs1 = serial.run_many(FACTORY, configs)
        runs4 = parallel.run_many(FACTORY, configs)
        assert runs1 == runs4
        # Byte-identical result sets, not merely equal objects.
        assert results_to_json(runs1) == results_to_json(runs4)

    def test_trace_stage_lists_consistent_across_jobs(self, tmp_path):
        configs = [BASE.with_(utilization=u) for u in self.UTILS[:2]]
        stage_lists = {}
        for jobs in (1, 4):
            runner = SweepRunner(jobs=jobs, trace_dir=tmp_path / str(jobs))
            records = runner.run_records(FACTORY, configs)
            stage_lists[jobs] = [tuple(r.trace.stage_list()) for r in records]
            for rec in records:
                assert rec.trace is not None
                assert tuple(rec.trace.stage_list()) == FLOW_STAGES
        assert stage_lists[1] == stage_lists[4]

    def test_trace_files_written_and_loadable(self, tmp_path):
        runner = SweepRunner(jobs=2, trace_dir=tmp_path / "t")
        runner.run_many(FACTORY,
                        [BASE.with_(utilization=u) for u in (0.5, 0.6)])
        traces = telemetry.load_traces(tmp_path / "t")
        runs = [t for t in traces if t.label != "sweep"]
        assert len(runs) == 2
        for trace in runs:
            assert tuple(trace.stage_list()) == FLOW_STAGES
        assert runner.stats.stage_time_s
        assert set(runner.stats.stage_time_s) >= set(FLOW_STAGES)
        assert "sweep stage breakdown" in runner.stats.stage_summary()

    def test_cache_hit_recorded_as_zero_cost_span(self, tmp_path):
        runner = SweepRunner(jobs=1, cache=FlowCache(tmp_path / "cache"),
                             trace_dir=tmp_path / "t")
        config = BASE.with_(utilization=0.5)
        runner.run_one(FACTORY, config)
        runner.run_one(FACTORY, config)
        traces = telemetry.load_traces(tmp_path / "t")
        hits = [s for t in traces for s in t.spans if s.name == "cache_hit"]
        assert len(hits) == 1
        assert hits[0].duration_s == 0.0
        assert runner.stats.counters.get("cache.hits") == 1
        assert runner.stats.stage_time_s.get("cache_hit") == 0.0

    def test_no_tracing_by_default(self):
        runner = SweepRunner(jobs=1)
        rec = runner.run_records(FACTORY, [BASE.with_(utilization=0.5)])[0]
        assert rec.trace is None
        assert runner.stats.stage_time_s == {}


class TestSweepIntegration:
    def test_max_valid_utilization_through_runner(self):
        from repro.core.sweeps import max_valid_utilization
        runner = SweepRunner(jobs=1)
        best, runs = max_valid_utilization(
            FACTORY, BASE, utilizations=(0.5, 0.7, IMPOSSIBLE_UTIL),
            runner=runner)
        assert best == 0.7
        assert len(runs) == 3
