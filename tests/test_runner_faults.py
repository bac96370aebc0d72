"""Runner resilience: retry, timeout, pool salvage, checkpoint resume.

Every scenario here injects deterministic faults (REPRO_FAULTS) into
real flows and asserts the sweep still completes with the healthy
points intact — completed work is never lost, failures are quarantined
as structured records, and the stats/counters stay consistent.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

import pytest

from repro.core import (
    FailedRun,
    FlowCache,
    FlowConfig,
    PPAResult,
    RetryPolicy,
    SweepRunner,
)
from repro.core import runner as runner_mod
from repro.core.cache import MAX_BYTES_ENV
from repro.core.faults import FAULTS_ENV
from repro.core.runner import RETRIES_ENV, TIMEOUT_ENV

from .golden_cases import MultiplierFactory

FACTORY = MultiplierFactory(4)
BASE = FlowConfig(arch="ffet", backside_pin_fraction=0.5)
CONFIGS = [BASE.with_(utilization=u) for u in (0.5, 0.56, 0.6)]

FAST = RetryPolicy(max_attempts=3, backoff_base_s=0.01, backoff_cap_s=0.05)


@contextmanager
def _no_alarm(timeout_s, config):
    """Stands in for the in-worker SIGALRM: only the watchdog is left."""
    yield


def _baseline():
    return SweepRunner(jobs=1).run_many(FACTORY, CONFIGS)


class TestRetry:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_transient_first_attempt_retries_to_success(self, monkeypatch,
                                                        jobs):
        monkeypatch.setenv(FAULTS_ENV, "placement:raise:first")
        runner = SweepRunner(jobs=jobs, retry=FAST)
        results = runner.run_many(FACTORY, CONFIGS)
        assert all(isinstance(r, PPAResult) for r in results)
        assert runner.stats.retries == len(CONFIGS)
        assert runner.stats.failed == 0

    def test_retried_results_match_healthy_baseline(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "placement:raise:first")
        retried = SweepRunner(jobs=1, retry=FAST).run_many(FACTORY, CONFIGS)
        monkeypatch.delenv(FAULTS_ENV)
        assert retried == _baseline()

    def test_persistent_transient_exhausts_into_quarantine(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "routing:raise")
        runner = SweepRunner(jobs=1, retry=FAST)
        result = runner.run_one(FACTORY, CONFIGS[0])
        assert isinstance(result, FailedRun)
        assert result.quarantined
        assert result.attempts == FAST.max_attempts
        assert result.stage == "routing"
        assert result.cause == "InjectedFault"
        assert runner.stats.quarantined == 1
        assert runner.stats.retries == FAST.max_attempts - 1

    def test_fatal_fault_is_not_retried(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "sta:fatal")
        runner = SweepRunner(jobs=1, retry=FAST)
        result = runner.run_one(FACTORY, CONFIGS[0])
        assert isinstance(result, FailedRun)
        assert result.attempts == 1
        assert runner.stats.retries == 0

    def test_backoff_schedule(self):
        policy = RetryPolicy(backoff_base_s=0.25, backoff_factor=2.0,
                             backoff_cap_s=1.0)
        assert policy.backoff_s(1) == 0.25
        assert policy.backoff_s(2) == 0.5
        assert policy.backoff_s(3) == 1.0
        assert policy.backoff_s(9) == 1.0  # capped


class TestTimeout:
    def test_hang_is_quarantined_as_timeout(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "sta:hang")
        runner = SweepRunner(jobs=1, retry=RetryPolicy(
            max_attempts=1, timeout_s=1.0))
        result = runner.run_one(FACTORY, CONFIGS[0])
        assert isinstance(result, FailedRun)
        assert result.cause == "RunTimeout"
        assert runner.stats.timeouts == 1
        assert runner.stats.quarantined == 1

    def test_hang_timeout_in_pool_worker(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "sta:hang")
        runner = SweepRunner(jobs=2, retry=RetryPolicy(
            max_attempts=1, timeout_s=1.0))
        results = runner.run_many(FACTORY, CONFIGS[:2])
        assert all(isinstance(r, FailedRun) and r.cause == "RunTimeout"
                   for r in results)

    def test_watchdog_quarantines_a_wedged_pool_worker(self, monkeypatch):
        """Workers the in-worker alarm cannot reach are quarantined by
        the parent-side watchdog after the timeout plus its grace."""
        monkeypatch.setattr(runner_mod, "_run_alarm", _no_alarm)
        monkeypatch.setattr(runner_mod, "WATCHDOG_GRACE_S", 0.5)
        monkeypatch.setenv(FAULTS_ENV, "sta:hang:duration=4")
        runner = SweepRunner(jobs=2, retry=RetryPolicy(
            max_attempts=1, timeout_s=0.5))
        started = time.monotonic()
        results = runner.run_many(FACTORY, CONFIGS[:2])
        assert time.monotonic() - started < 3.5
        assert all(isinstance(r, FailedRun) and r.cause == "RunTimeout"
                   and r.quarantined for r in results)
        assert runner.stats.timeouts == 2

    def test_healthy_run_unaffected_by_generous_timeout(self):
        runner = SweepRunner(jobs=1, retry=RetryPolicy(timeout_s=600.0))
        assert runner.run_many(FACTORY, CONFIGS) == _baseline()


@pytest.mark.parametrize("raw", ["inf", "1e400", "nan", "-1"])
def test_unusable_env_numbers_read_as_unset(raw, tmp_path, monkeypatch):
    """Non-finite or non-positive knobs fall back to the defaults instead
    of quarantining every run or failing to build a runner or a cache."""
    monkeypatch.setenv(TIMEOUT_ENV, raw)
    monkeypatch.setenv(RETRIES_ENV, raw)
    monkeypatch.setenv(MAX_BYTES_ENV, raw)
    assert RetryPolicy.from_env() == RetryPolicy()
    assert FlowCache(tmp_path).max_bytes is None
    result = SweepRunner(jobs=1).run_one(FACTORY, CONFIGS[0])
    assert isinstance(result, PPAResult)


class TestPoolSalvage:
    def test_worker_death_does_not_lose_completed_results(self, monkeypatch):
        """One config kills its worker once; everything still completes
        and matches the healthy baseline bit for bit."""
        monkeypatch.setenv(FAULTS_ENV, "def_merge:die:first")
        runner = SweepRunner(jobs=2, retry=FAST)
        results = runner.run_many(FACTORY, CONFIGS)
        assert runner.stats.pool_restarts >= 1
        monkeypatch.delenv(FAULTS_ENV)
        assert results == _baseline()

    def test_persistent_worker_death_quarantines_only_the_killer(
            self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "def_merge:die")
        runner = SweepRunner(jobs=2, retry=RetryPolicy(
            max_attempts=2, backoff_base_s=0.01))
        results = runner.run_many(FACTORY, CONFIGS)
        assert all(isinstance(r, FailedRun) for r in results)
        assert all(r.cause == "WorkerDied" and r.quarantined
                   for r in results)
        assert runner.stats.quarantined == len(CONFIGS)
        # The sweep completed: every config has a record, none was lost.
        assert len(results) == len(CONFIGS)

    def test_stats_are_consistent_after_salvage(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "def_merge:die:first")
        runner = SweepRunner(jobs=2, retry=FAST)
        runner.run_many(FACTORY, CONFIGS)
        s = runner.stats
        assert s.runs == len(CONFIGS)
        assert s.executed == len(CONFIGS)
        assert s.cache_hits == 0
        assert s.retries >= 1
        assert s.pool_restarts >= 1


class _CountingCache(FlowCache):
    """Counts stored run results (stage entries are not counted)."""

    def __init__(self, directory):
        super().__init__(directory)
        self.puts = 0

    def put(self, key, kind, obj):
        if kind == "result":
            self.puts += 1
        return super().put(key, kind, obj)


class TestCacheInteraction:
    def test_no_double_puts_on_parallel_sweep(self, tmp_path):
        cache = _CountingCache(tmp_path)
        runner = SweepRunner(jobs=2, cache=cache, retry=FAST)
        runner.run_many(FACTORY, CONFIGS)
        assert cache.puts == len(CONFIGS)

    def test_cache_bypassed_while_faults_active(self, tmp_path, monkeypatch):
        cache = _CountingCache(tmp_path)
        healthy = SweepRunner(jobs=1, cache=cache)
        healthy.run_many(FACTORY, CONFIGS[:1])
        assert cache.puts == 1
        monkeypatch.setenv(FAULTS_ENV, "routing:raise")
        faulty = SweepRunner(jobs=1, cache=cache, retry=FAST)
        result = faulty.run_one(FACTORY, CONFIGS[0])
        assert isinstance(result, FailedRun)  # the cached hit was NOT served
        assert faulty.stats.cache_hits == 0
        assert cache.puts == 1  # and the injected failure was NOT stored

    def test_quarantined_failures_never_cached(self, tmp_path, monkeypatch):
        cache = _CountingCache(tmp_path)
        monkeypatch.setenv(FAULTS_ENV, "routing:raise")
        SweepRunner(jobs=1, cache=cache, retry=FAST).run_one(
            FACTORY, CONFIGS[0])
        monkeypatch.delenv(FAULTS_ENV)
        assert cache.puts == 0
        assert cache.info()["entries"] == 0
        # A later healthy invocation recomputes and gets the real result.
        runner = SweepRunner(jobs=1, cache=cache)
        result = runner.run_one(FACTORY, CONFIGS[0])
        assert isinstance(result, PPAResult)


class TestCheckpoint:
    def test_checkpointed_sweep_matches_baseline(self, tmp_path):
        ck = tmp_path / "sweep.ckpt"
        runner = SweepRunner(jobs=1, checkpoint=ck)
        assert runner.run_many(FACTORY, CONFIGS) == _baseline()
        lines = [json.loads(line) for line in ck.read_text().splitlines()]
        assert lines[0]["ev"] == "journal"
        assert lines[-1]["ev"] == "state"
        assert sum(1 for p in lines if p["ev"] == "run") == len(CONFIGS)

    def test_full_resume_is_bit_for_bit(self, tmp_path):
        ck = tmp_path / "sweep.ckpt"
        SweepRunner(jobs=1, checkpoint=ck).run_many(FACTORY, CONFIGS)
        resumed = SweepRunner(jobs=1, checkpoint=ck)
        assert resumed.run_many(FACTORY, CONFIGS) == _baseline()
        assert resumed.stats.resumed == len(CONFIGS)
        assert resumed.stats.executed == 0

    def test_truncated_tail_resume(self, tmp_path):
        """A crash mid-write leaves a torn last line; resume keeps the
        intact prefix and recomputes only the rest."""
        ck = tmp_path / "sweep.ckpt"
        SweepRunner(jobs=1, checkpoint=ck).run_many(FACTORY, CONFIGS)
        lines = ck.read_text().splitlines()
        ck.write_text("\n".join(lines[:3]) + "\n" + lines[3][:37])
        resumed = SweepRunner(jobs=1, checkpoint=ck)
        assert resumed.run_many(FACTORY, CONFIGS) == _baseline()
        assert resumed.stats.resumed == 1
        assert resumed.stats.executed == len(CONFIGS) - 1

    def test_checkpoint_of_different_sweep_is_ignored(self, tmp_path):
        ck = tmp_path / "sweep.ckpt"
        SweepRunner(jobs=1, checkpoint=ck).run_many(FACTORY, CONFIGS)
        other = [BASE.with_(utilization=0.66)]
        runner = SweepRunner(jobs=1, checkpoint=ck)
        runner.run_many(FACTORY, other)
        assert runner.stats.resumed == 0
        assert runner.stats.executed == 1

    def test_no_resume_flag_recomputes(self, tmp_path):
        ck = tmp_path / "sweep.ckpt"
        SweepRunner(jobs=1, checkpoint=ck).run_many(FACTORY, CONFIGS)
        runner = SweepRunner(jobs=1, checkpoint=ck, resume=False)
        assert runner.run_many(FACTORY, CONFIGS) == _baseline()
        assert runner.stats.resumed == 0

    def test_parallel_checkpoint_resume(self, tmp_path):
        ck = tmp_path / "sweep.ckpt"
        first = SweepRunner(jobs=4, checkpoint=ck)
        assert first.run_many(FACTORY, CONFIGS) == _baseline()
        resumed = SweepRunner(jobs=4, checkpoint=ck)
        assert resumed.run_many(FACTORY, CONFIGS) == _baseline()
        assert resumed.stats.resumed == len(CONFIGS)
