"""End-to-end tests for ``repro serve``: the job server over HTTP.

The two acceptance-bar tests from the service issue live here:

* **cross-job stage dedup** — two clients submit overlapping
  layer-split sweeps against one cold shared cache; every stage key is
  computed exactly once across both jobs (single-flight counters are
  the witness) and every response is byte-identical to a serial run;
* **journal crash-recovery** — a ``repro serve`` subprocess is
  SIGKILLed mid-sweep (deterministically, via a held stage gate lock),
  restarted with ``--resume``, and must replay the settled runs
  bit-for-bit without recomputing them.
"""

from __future__ import annotations

import asyncio
import heapq
import json
import os
import signal
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.core import FlowCache, FlowConfig, SweepRunner, stage_keys
from repro.core import runner as runner_mod
from repro.core.cache import netlist_fingerprint
from repro.core.faults import FAULTS_ENV
from repro.core.flow import FLOW_STAGES
from repro.core.guard import GUARD_ENV
from repro.core.io import result_to_dict
from repro.core.runner import TERMINAL, run_once
from repro.service import ReproClient, ReproServer, Scheduler, ServiceError
from repro.service.journal import JobJournal

from .golden_cases import MultiplierFactory

FACTORY = MultiplierFactory(4)
MULT = {"type": "multiplier", "bits": 4}
BASE_CONFIG = {"arch": "ffet", "backside_pin_fraction": 0.5,
               "utilization": 0.5}
RUN_SPEC = {"kind": "run", "design": MULT, "config": BASE_CONFIG}


@contextmanager
def _no_alarm(timeout_s, config):
    """Stands in for the in-worker SIGALRM: only the watchdog is left."""
    yield


def canonical(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def serial_result(config: FlowConfig) -> dict:
    """The ground truth one config must produce, computed in-process."""
    return result_to_dict(run_once(FACTORY, config))


@contextmanager
def serve(tmp_path: Path, workers: int = 2, cache: bool = True,
          journal: bool = True, max_runs: int = 64):
    """A live server on an ephemeral port, on a background loop."""
    flow_cache = FlowCache(tmp_path / "cache") if cache else None
    job_journal = JobJournal(tmp_path / "journal.jsonl") if journal \
        else None
    scheduler = Scheduler(cache=flow_cache, workers=workers,
                          journal=job_journal, max_runs=max_runs)
    server = ReproServer(scheduler, "127.0.0.1", 0)
    loop = asyncio.new_event_loop()
    ready = threading.Event()

    def main() -> None:
        asyncio.set_event_loop(loop)
        loop.run_until_complete(server.start())
        ready.set()
        loop.run_until_complete(server.wait_stopped())
        loop.close()

    thread = threading.Thread(target=main, daemon=True)
    thread.start()
    assert ready.wait(timeout=30), "server failed to start"
    try:
        yield ReproClient(f"http://127.0.0.1:{server.port}"), scheduler
    finally:
        if not server._stopped.is_set():
            asyncio.run_coroutine_threadsafe(server.stop(), loop) \
                .result(timeout=30)
        thread.join(timeout=30)


class TestHttpSurface:
    def test_healthz_stats_and_404(self, tmp_path):
        with serve(tmp_path, cache=False, journal=False) as (client, _):
            health = client.healthz()
            assert health["ok"] is True and health["workers"] == 2
            stats = client.stats()
            assert stats["pool"] in ("process", "thread")
            assert client.jobs() == []
            with pytest.raises(ServiceError) as err:
                client.status("j9999")
            assert err.value.status == 404

    def test_bad_specs_are_structured_400s(self, tmp_path):
        with serve(tmp_path, cache=False, journal=False,
                   max_runs=2) as (client, _):
            with pytest.raises(ServiceError) as err:
                client.submit({"kind": "teleport"})
            assert err.value.status == 400
            assert "unknown job kind" in str(err.value)
            with pytest.raises(ServiceError) as err:
                client.submit({"kind": "sweep", "axis": "utilization",
                               "points": [0.5, 0.6, 0.7], "design": MULT,
                               "config": BASE_CONFIG})
            assert "per-job quota" in str(err.value)
            with pytest.raises(ServiceError) as err:
                client._request("POST", "/jobs")
            assert err.value.status == 400

    def test_run_job_executes_then_caches(self, tmp_path):
        with serve(tmp_path) as (client, scheduler):
            first = client.wait(client.submit(RUN_SPEC)["id"],
                                timeout_s=120)
            assert first["state"] == "completed"
            [run] = first["runs"]
            assert run["via"] == "executed" and run["ok"]
            assert canonical(run["result"]) == \
                canonical(serial_result(FlowConfig(**BASE_CONFIG)))

            second = client.wait(client.submit(RUN_SPEC)["id"],
                                 timeout_s=60)
            assert second["runs"][0]["via"] == "cache"
            assert canonical(second["runs"][0]["result"]) == \
                canonical(run["result"])
            counters = client.stats()["counters"]
            assert counters["runner.executed"] == 1
            assert counters["runner.cache"] == 1

    def test_events_stream_sees_intermediate_snapshots(self, tmp_path):
        with serve(tmp_path, workers=1) as (client, _):
            spec = {"kind": "sweep", "axis": "layers",
                    "splits": ["9:3", "8:4"], "design": MULT,
                    "config": BASE_CONFIG}
            job_id = client.submit(spec)["id"]
            final = client._stream_until_terminal(job_id, timeout_s=120)
            assert final["state"] == "completed"
            assert final["done"] == 2


class TestCrossJobDedup:
    def test_overlapping_sweeps_compute_each_stage_once(self, tmp_path):
        """Satellite #3: the acceptance-bar dedup test.

        Two clients submit overlapping layer-split sweeps into one cold
        shared cache.  The sum of ``stage_cache.miss.<stage>`` over
        both jobs must equal the number of *unique* stage keys — every
        stage computed exactly once, cross-job — and each settled run
        must be byte-identical to an in-process serial run.
        """
        splits_a = ["9:3", "8:4", "7:5"]
        splits_b = ["8:4", "7:5", "6:6"]

        def sweep(splits):
            return {"kind": "sweep", "axis": "layers", "splits": splits,
                    "design": MULT, "config": BASE_CONFIG}

        with serve(tmp_path, workers=2) as (client, scheduler):
            ids: list[str | None] = [None, None]

            def submit(slot, splits):
                ids[slot] = client.submit(sweep(splits))["id"]

            threads = [threading.Thread(target=submit, args=(0, splits_a)),
                       threading.Thread(target=submit, args=(1, splits_b))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            finals = [client.wait(jid, timeout_s=300) for jid in ids]
            assert all(f["state"] == "completed" for f in finals)

            # Byte-identical to serial ground truth, per run.
            def split_config(split):
                front, back = split.split(":")
                return FlowConfig(**BASE_CONFIG,
                                  front_layers=int(front),
                                  back_layers=int(back))

            for final, splits in zip(finals, (splits_a, splits_b)):
                for run, split in zip(final["runs"], splits):
                    assert run["ok"], run
                    assert canonical(run["result"]) == \
                        canonical(serial_result(split_config(split)))

            # The two shared splits are executed once and deduped (or
            # cache-served, if the jobs raced past each other) for the
            # other job; the four unique configs execute exactly once.
            counters = scheduler.counters
            assert counters["runner.executed"] == 4
            assert counters.get("runner.dedup", 0) \
                + counters.get("runner.cache", 0) == 2

            # Exactly-once per stage key, across jobs and workers: the
            # miss counter tallies actual computations (single-flight
            # waiters and replays count as hits).
            fingerprint = netlist_fingerprint(FACTORY())
            expected: dict[str, set] = {stage: set()
                                        for stage in FLOW_STAGES}
            for split in set(splits_a) | set(splits_b):
                for stage, key in stage_keys(split_config(split),
                                             fingerprint).items():
                    expected[stage].add(key)
            for stage in FLOW_STAGES:
                assert counters.get(f"stage_cache.miss.{stage}", 0) \
                    == len(expected[stage]), stage
            # The layer split first enters the key chain at routing, so
            # the placement prefix really was shared (1 key) while the
            # routing tail was per-config (4 keys).
            assert len(expected["placement"]) == 1
            assert len(expected["routing"]) == 4


class TestSchedulerSemantics:
    def test_priority_orders_the_heap(self, tmp_path):
        async def scenario():
            scheduler = Scheduler(cache=None, workers=1, journal=None)
            await scheduler.start()
            scheduler._idle = 0  # freeze dispatch: items stay queued
            low = scheduler.submit(dict(RUN_SPEC, priority=0))
            high = scheduler.submit(dict(RUN_SPEC, priority=5))
            mid = scheduler.submit(dict(RUN_SPEC, priority=3))
            order = []
            while scheduler._heap:
                *_ignored, job_id = heapq.heappop(scheduler._heap)
                order.append(job_id)
            scheduler._idle = 1
            await scheduler.stop()
            return order, [high.id, mid.id, low.id]

        order, expected = asyncio.run(scenario())
        assert order == expected

    def test_cancel_skips_unstarted_items(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_LOCK_TIMEOUT", "60")
        cache_dir = tmp_path / "cache"
        spec = {"kind": "sweep", "axis": "layers",
                "splits": ["9:3", "8:4", "7:5", "6:6"],
                "design": MULT, "config": BASE_CONFIG}
        # Hold the library gate so the first worker blocks immediately
        # and the cancel deterministically lands mid-job.
        gate_key = stage_keys(
            FlowConfig(**BASE_CONFIG, front_layers=9, back_layers=3),
            netlist_fingerprint(FACTORY()))["library"]
        gate = FlowCache(cache_dir).locks.lock(gate_key)
        assert gate.try_acquire()
        try:
            with serve(tmp_path, workers=1,
                       journal=False) as (client, scheduler):
                job_id = client.submit(spec)["id"]
                deadline = time.time() + 30
                while not scheduler._inflight and time.time() < deadline:
                    time.sleep(0.02)
                assert client.cancel(job_id)["state"] == "cancelled"
                gate.release()
                deadline = time.time() + 60
                while (scheduler._idle < scheduler.workers
                       or scheduler._heap) and time.time() < deadline:
                    time.sleep(0.05)
                final = client.status(job_id)
                assert final["state"] == "cancelled"
                # The blocked item may have settled; the rest must not.
                assert final["done"] <= 1
        finally:
            gate.release()


    def test_dedup_waiter_holds_the_future_dispatch_saw(self):
        """The owner may settle, and leave the in-flight table, before
        the waiter's task first runs; the waiter must still settle."""
        async def scenario():
            scheduler = Scheduler(cache=None, workers=1, journal=None)
            spawn, held = scheduler._spawn, []

            def hold_waiters(coro):
                if coro.__name__ == "_await_inflight":
                    held.append(coro)
                else:
                    spawn(coro)

            scheduler._spawn = hold_waiters
            await scheduler.start()
            owner = scheduler.submit(RUN_SPEC)
            waiter = scheduler.submit(RUN_SPEC)
            deadline = time.time() + 120
            while owner.state not in TERMINAL and time.time() < deadline:
                await asyncio.sleep(0.05)
            assert held and not scheduler._inflight
            for coro in held:
                spawn(coro)
            deadline = time.time() + 10
            while waiter.state not in TERMINAL and time.time() < deadline:
                await asyncio.sleep(0.05)
            await scheduler.stop()
            return owner.to_dict(), waiter.to_dict()

        owner, waiter = asyncio.run(scenario())
        assert waiter["state"] == "completed"
        assert waiter["runs"][0]["via"] == "dedup"
        assert waiter["runs"][0]["result"] == owner["runs"][0]["result"]

    def test_mc_jobs_are_keyed_on_every_mc_parameter(self, tmp_path):
        """Two MC studies differing only in overlay sigma are two
        computations, not one deduped into the other."""
        def study(sigma):
            return {"kind": "mc", "design": MULT, "config": BASE_CONFIG,
                    "mc": {"samples": 4, "seed": 1,
                           "overlay_sigma_nm": sigma}}

        with serve(tmp_path, journal=False) as (client, _):
            ids = [client.submit(study(sigma))["id"] for sigma in (0.5, 6.0)]
            runs = [client.wait(jid, timeout_s=300)["runs"][0]
                    for jid in ids]
        assert all(run["ok"] for run in runs), runs
        assert [run["via"] for run in runs] == ["executed", "executed"]
        assert runs[0]["result"] != runs[1]["result"]


class TestFaultRule:
    def test_results_under_a_fault_plan_never_reach_the_store(
            self, tmp_path, monkeypatch):
        """A damaged result computed while faults are injected must not
        be served to a later healthy run as a cache hit."""
        monkeypatch.setenv(FAULTS_ENV, "def_merge:corrupt")
        monkeypatch.setenv(GUARD_ENV, "warn")
        with serve(tmp_path, journal=False) as (client, _):
            final = client.wait(client.submit(RUN_SPEC)["id"],
                                timeout_s=120)
        assert final["done"] == 1
        monkeypatch.setenv(FAULTS_ENV, "")
        monkeypatch.setenv(GUARD_ENV, "")

        cache = FlowCache(tmp_path / "cache")
        assert not list((cache.directory / "blobs" / "result").rglob("*"))
        runner = SweepRunner(jobs=1, cache=cache)
        config = FlowConfig(**BASE_CONFIG)
        result = runner.run_one(FACTORY, config)
        assert runner.stats.executed == 1 and runner.stats.cache_hits == 0
        assert canonical(result_to_dict(result)) == \
            canonical(serial_result(config))

    def test_watchdog_quarantines_wedged_workers(self, tmp_path,
                                                 monkeypatch):
        monkeypatch.setattr(runner_mod, "_run_alarm", _no_alarm)
        monkeypatch.setattr(runner_mod, "WATCHDOG_GRACE_S", 0.5)
        monkeypatch.setenv(FAULTS_ENV, "sta:hang:duration=4")
        spec = {"kind": "sweep", "axis": "utilization",
                "points": [0.5, 0.56], "design": MULT,
                "config": BASE_CONFIG,
                "quota": {"retries": 1, "timeout_s": 0.5}}
        with serve(tmp_path, cache=False, journal=False) as (client, _):
            final = client.wait(client.submit(spec)["id"], timeout_s=60)
            counters = client.stats()["counters"]
        assert final["state"] == "failed"
        assert [run["result"]["cause"] for run in final["runs"]] == \
            ["RunTimeout", "RunTimeout"]
        assert counters["runner.timeouts"] == 2


class TestCrashRecovery:
    def test_sigkill_resume_replays_settled_runs(self, tmp_path):
        """Satellite #4: the acceptance-bar crash-recovery test.

        ``repro serve`` is killed (SIGKILL, whole process group)
        mid-sweep with two runs settled and one worker blocked on a
        held stage gate.  The restarted server must resume the job,
        replay the two settled runs from the journal without
        recomputing them, finish the rest, and produce a final job
        JSON identical to an uninterrupted run.
        """
        cache_dir = tmp_path / "cache"
        journal = tmp_path / "journal.jsonl"
        splits = ["9:3", "8:4", "7:5", "6:6", "10:2", "11:1"]
        spec = {"kind": "sweep", "axis": "layers", "splits": splits,
                "design": MULT, "config": BASE_CONFIG}

        def start_server():
            port_file = tmp_path / f"port-{time.time_ns()}"
            env = dict(os.environ,
                       PYTHONPATH=str(Path(__file__).resolve()
                                      .parents[1] / "src"),
                       REPRO_CACHE_DIR=str(cache_dir),
                       REPRO_LOCK_TIMEOUT="120")
            process = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0",
                 "--port-file", str(port_file), "--workers", "1",
                 "--journal", str(journal)],
                env=env, cwd=str(tmp_path), start_new_session=True,
                stdout=subprocess.DEVNULL, stderr=subprocess.STDOUT)
            deadline = time.time() + 60
            while time.time() < deadline:
                if port_file.exists() and port_file.read_text().strip():
                    break
                assert process.poll() is None, "server died on startup"
                time.sleep(0.05)
            port = int(port_file.read_text().strip())
            return process, ReproClient(f"http://127.0.0.1:{port}")

        # Gate the third split's routing stage: items 0 and 1 settle,
        # item 2 blocks inside its worker, deterministically mid-sweep.
        fingerprint = netlist_fingerprint(FACTORY())
        gate_key = stage_keys(
            FlowConfig(**BASE_CONFIG, front_layers=7, back_layers=5),
            fingerprint)["routing"]
        gate = FlowCache(cache_dir).locks.lock(gate_key)
        assert gate.try_acquire()

        process, client = start_server()
        try:
            job_id = client.submit(spec)["id"]
            deadline = time.time() + 120
            while time.time() < deadline:
                if client.status(job_id)["done"] >= 2:
                    break
                time.sleep(0.05)
            before = client.status(job_id)
            assert before["done"] == 2, before
            os.killpg(process.pid, signal.SIGKILL)
            process.wait(timeout=30)
        finally:
            gate.release()
            if process.poll() is None:
                os.killpg(process.pid, signal.SIGKILL)

        process, client = start_server()
        try:
            jobs = client.jobs()
            assert [job["id"] for job in jobs] == [job_id]
            final = client.wait(job_id, timeout_s=300)
            assert final["state"] == "completed"
            assert final["done"] == len(splits)

            # The two pre-kill runs were replayed, not recomputed: the
            # journaled records survive bit-for-bit (same via, same
            # wall time) and the resumed counter says so.
            for index in (0, 1):
                assert final["runs"][index] == before["runs"][index]
            counters = client.stats()["counters"]
            assert counters["runner.resumed"] == 2
            assert counters.get("runner.executed", 0) \
                + counters.get("runner.cache", 0) \
                == len(splits) - 2

            # And the whole job matches an uninterrupted serial run.
            for run, split in zip(final["runs"], splits):
                front, back = split.split(":")
                truth = serial_result(FlowConfig(
                    **BASE_CONFIG, front_layers=int(front),
                    back_layers=int(back)))
                assert canonical(run["result"]) == canonical(truth)

            # The shared cache survived the kill intact.
            report = FlowCache(cache_dir).fsck()
            assert report["clean"], report["defects"]
            client.shutdown()
            process.wait(timeout=30)
        finally:
            if process.poll() is None:
                os.killpg(process.pid, signal.SIGKILL)
