"""Cross-process single-flight on the stage store, plus stress tests.

The acceptance bar from the robustness issue: concurrent processes
sharing one cold store compute each stage key exactly once, results are
byte-identical to a serial run (with the quota forcing eviction
mid-sweep), and ``fsck`` finds zero defects afterwards — including
under injected lock-holder-death.
"""

from __future__ import annotations

import json
import multiprocessing
import threading
import time

from repro.core import FlowCache, FlowConfig, SweepRunner, telemetry
from repro.core.cache import result_to_payload
from repro.core.faults import DIE_EXIT_CODE, FAULTS_ENV
from repro.core.locking import LOCK_TIMEOUT_ENV
from repro.core.ppa import FailedRun, PPAResult
from repro.core.stages import StageStore
from repro.core.sweeps import utilization_sweep

from .golden_cases import MultiplierFactory

FACTORY = MultiplierFactory(4)
BASE = FlowConfig(arch="ffet", backside_pin_fraction=0.5, utilization=0.5)
KEY = "ab" + "0" * 62
KEYS = [f"{i:02x}" + "0" * 62 for i in range(8)]


class TestFetchOrLease:
    def test_hit_returns_artifact_without_lease(self, tmp_path):
        store = StageStore(FlowCache(tmp_path))
        store.put("routing", KEY, {"x": 1})
        artifact, lease = store.fetch_or_lease("routing", KEY)
        assert artifact == {"x": 1}
        assert lease is None
        assert store.hits == 1

    def test_miss_wins_a_lease(self, tmp_path):
        store = StageStore(FlowCache(tmp_path))
        artifact, lease = store.fetch_or_lease("routing", KEY)
        assert artifact is None
        assert lease is not None
        assert store.cache.locks.lock(KEY).exists()
        lease.release()
        assert not store.cache.locks.lock(KEY).exists()

    def test_uncontended_path_emits_no_singleflight_counters(self, tmp_path):
        tracer = telemetry.Tracer(label="t")
        with telemetry.activate(tracer):
            store = StageStore(FlowCache(tmp_path))
            _, lease = store.fetch_or_lease("routing", KEY)
            store.put("routing", KEY, {"x": 1})
            lease.release()
            store.fetch_or_lease("routing", KEY)
        trace = tracer.finish()
        flights = [k for k in trace.counters
                   if k.startswith("stage_cache.singleflight.")]
        assert flights == []
        assert store.counters().get("stage_cache.singleflight.wait") is None

    def test_waiter_loads_published_artifact(self, tmp_path, monkeypatch):
        monkeypatch.setenv(LOCK_TIMEOUT_ENV, "30")
        cache = FlowCache(tmp_path)
        owner = StageStore(cache)
        _, lease = owner.fetch_or_lease("routing", KEY)
        assert lease is not None
        waiter = StageStore(FlowCache(tmp_path))
        got: list = []

        def wait_side():
            got.append(waiter.fetch_or_lease("routing", KEY))

        thread = threading.Thread(target=wait_side)
        thread.start()
        time.sleep(0.2)  # let the waiter reach the poll loop
        owner.put("routing", KEY, {"x": 42})
        lease.release()
        thread.join(timeout=30)
        artifact, waiter_lease = got[0]
        assert artifact == {"x": 42}
        assert waiter_lease is None
        assert waiter.singleflight["wait"] == 1
        assert waiter.hits == 1

    def test_waiter_takes_over_when_holder_fails(self, tmp_path,
                                                 monkeypatch):
        monkeypatch.setenv(LOCK_TIMEOUT_ENV, "30")
        owner = StageStore(FlowCache(tmp_path))
        _, lease = owner.fetch_or_lease("routing", KEY)
        waiter = StageStore(FlowCache(tmp_path))
        got: list = []

        def wait_side():
            got.append(waiter.fetch_or_lease("routing", KEY))

        thread = threading.Thread(target=wait_side)
        thread.start()
        time.sleep(0.2)
        lease.release()  # "stage failed": released without publishing
        thread.join(timeout=30)
        artifact, takeover = got[0]
        assert artifact is None
        assert takeover is not None  # the waiter now owns the compute
        assert waiter.singleflight["compute"] == 1
        takeover.release()

    def test_wait_timeout_degrades_to_independent(self, tmp_path,
                                                  monkeypatch):
        monkeypatch.setenv(LOCK_TIMEOUT_ENV, "0.2")
        cache = FlowCache(tmp_path)
        holder = cache.locks.lock(KEY)
        assert holder.try_acquire()  # a live, wedged-looking holder
        store = StageStore(FlowCache(tmp_path))
        artifact, lease = store.fetch_or_lease("routing", KEY)
        assert artifact is None and lease is None  # compute on your own
        assert store.singleflight["timeout"] == 1
        assert store.counters()["stage_cache.singleflight.timeout"] == 1.0
        holder.release()

    def test_stale_lock_is_stolen(self, tmp_path, monkeypatch):
        import socket
        monkeypatch.setenv(LOCK_TIMEOUT_ENV, "30")
        proc = multiprocessing.Process(target=lambda: None)
        proc.start()
        dead = proc.pid
        proc.join()
        cache = FlowCache(tmp_path)
        lock_path = tmp_path / "locks" / f"{KEY}.lock"
        lock_path.parent.mkdir(parents=True)
        lock_path.write_text(json.dumps({
            "pid": dead, "host": socket.gethostname(),
            "created": time.time()}))
        store = StageStore(cache)
        store.cache._opened = True  # keep the open-sweep from racing us
        artifact, lease = store.fetch_or_lease("routing", KEY)
        assert artifact is None
        assert lease is not None
        assert store.singleflight["steal"] == 1
        lease.release()


def _die_holding_lease(cache_dir):
    # Module-level multiprocessing target: wins the lease for KEY and
    # exits hard via the lock.acquire:die fault, orphaning the lock.
    store = StageStore(FlowCache(cache_dir))
    store.cache._opened = True  # sweep must not hide the crash debris
    store.fetch_or_lease("routing", KEY)  # fires os._exit(86)


class TestLockHolderDeathFault:
    def test_steal_after_injected_death(self, tmp_path, monkeypatch):
        ctx = multiprocessing.get_context()
        proc = ctx.Process(target=_die_holding_lease, args=(tmp_path,))
        monkeypatch.setenv(FAULTS_ENV, "lock.acquire:die")
        proc.start()
        proc.join(timeout=60)
        monkeypatch.delenv(FAULTS_ENV)
        assert proc.exitcode == DIE_EXIT_CODE
        orphan = tmp_path / "locks" / f"{KEY}.lock"
        assert orphan.exists()  # the dead holder's lock is still there
        monkeypatch.setenv(LOCK_TIMEOUT_ENV, "30")
        store = StageStore(FlowCache(tmp_path))
        store.cache._opened = True  # exercise the steal, not the sweep
        artifact, lease = store.fetch_or_lease("routing", KEY)
        assert artifact is None
        assert lease is not None  # stolen and taken over
        assert store.singleflight["steal"] == 1
        store.put("routing", KEY, {"x": 1})
        lease.release()
        assert store.cache.fsck()["clean"]

    def test_open_sweep_clears_orphaned_lock(self, tmp_path, monkeypatch):
        ctx = multiprocessing.get_context()
        monkeypatch.setenv(FAULTS_ENV, "lock.acquire:die")
        proc = ctx.Process(target=_die_holding_lease, args=(tmp_path,))
        proc.start()
        proc.join(timeout=60)
        monkeypatch.delenv(FAULTS_ENV)
        cache = FlowCache(tmp_path)
        cache.get(KEY, "stage-routing")  # first use triggers the open sweep
        assert cache.swept_locks == 1
        assert not (tmp_path / "locks" / f"{KEY}.lock").exists()


def _run_flow_worker(cache_dir, barrier, out_path):
    # One of two processes racing the same config over a shared cold
    # store; ships its store counters back as JSON.
    from repro.core.runner import run_once
    store = StageStore(FlowCache(cache_dir))
    barrier.wait()
    result = run_once(FACTORY, BASE, store=store)
    assert isinstance(result, PPAResult)
    out_path.write_text(json.dumps({
        "hits": store.hits, "misses": store.misses,
        "singleflight": store.singleflight,
        "result": result_to_payload(result),
    }))


class TestSingleFlightDedup:
    def test_concurrent_identical_runs_compute_each_stage_once(
            self, tmp_path, monkeypatch):
        from repro.core.cache import netlist_fingerprint
        from repro.core.flow import stage_keys
        monkeypatch.setenv(LOCK_TIMEOUT_ENV, "120")
        cache_dir = tmp_path / "store"
        # Pre-hold the first stage's lock so both workers provably
        # contend on it (the wait counter is deterministic, not a
        # scheduling accident); releasing without publishing hands the
        # lease to one of them.
        gate_key = stage_keys(
            BASE, netlist_fingerprint(FACTORY()))["library"]
        gate = FlowCache(cache_dir).locks.lock(gate_key)
        assert gate.try_acquire()
        outs = [tmp_path / "a.json", tmp_path / "b.json"]
        barrier = multiprocessing.Barrier(2)
        procs = [multiprocessing.Process(
            target=_run_flow_worker, args=(cache_dir, barrier, out))
            for out in outs]
        for p in procs:
            p.start()
        time.sleep(0.5)  # both workers are now waiting on the gate
        gate.release()
        for p in procs:
            p.join(timeout=300)
        assert all(p.exitcode == 0 for p in procs)
        reports = [json.loads(out.read_text()) for out in outs]
        # Exactly one process computed each of the 13 stages; the other
        # replayed them all from the store after waiting its turn.
        assert sum(r["misses"] for r in reports) == 13
        assert sum(r["hits"] for r in reports) == 13
        assert sum(r["singleflight"]["wait"] for r in reports) >= 2
        assert sum(r["singleflight"]["timeout"] for r in reports) == 0
        assert reports[0]["result"] == reports[1]["result"]
        assert FlowCache(cache_dir).fsck()["clean"]


def _hammer_store(cache_dir, barrier, worker_index):
    # Concurrent result and stage puts/gets plus fsck on overlapping
    # keys with a quota small enough to force eviction under the readers.
    cache = FlowCache(cache_dir, max_bytes=4096)
    store = StageStore(cache)
    barrier.wait()
    for round_ in range(25):
        key = KEYS[(worker_index + round_) % len(KEYS)]
        store.put_result(key, FailedRun(label=f"w{worker_index}",
                                        target_utilization=0.9,
                                        reason="tap"))
        got = store.result(KEYS[round_ % len(KEYS)])
        assert got is None or isinstance(got, FailedRun)  # never torn
        store.put("sta", key, {"pad": "x" * 64})
        blob = store.get("sta", KEYS[(round_ + 3) % len(KEYS)])
        assert blob is None or isinstance(blob, dict)
        if round_ % 8 == worker_index % 8:
            report = cache.fsck()  # read-only audit under fire
            assert isinstance(report["defects"], list)
    assert cache.corrupt == 0  # atomic writes: no torn reads, ever


class TestMultiprocessStress:
    def test_hammer_one_store(self, tmp_path):
        workers = 4
        barrier = multiprocessing.Barrier(workers)
        procs = [multiprocessing.Process(
            target=_hammer_store, args=(tmp_path, barrier, i))
            for i in range(workers)]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=120)
        assert all(p.exitcode == 0 for p in procs)
        cache = FlowCache(tmp_path)
        report = cache.fsck()
        assert report["clean"], report["defects"]
        assert cache.info()["live_locks"] == 0


class TestQuotaSweepParity:
    def test_jobs_parity_with_eviction_mid_sweep(self, tmp_path):
        # The quota is sized to evict stage blobs mid-sweep; eviction
        # must cost only recomputation, never a single result bit.
        utils = [0.5, 0.55, 0.6]
        quota = 16 * 1024
        serial_cache = FlowCache(tmp_path / "serial", max_bytes=quota)
        serial = utilization_sweep(
            FACTORY, BASE, utils,
            runner=SweepRunner(jobs=1, cache=serial_cache))
        parallel = utilization_sweep(
            FACTORY, BASE, utils,
            runner=SweepRunner(jobs=4, cache=FlowCache(
                tmp_path / "par", max_bytes=quota)))
        assert [result_to_payload(r) for r in serial] == \
               [result_to_payload(r) for r in parallel]
        assert serial_cache.evictions > 0  # the quota actually bit
        assert FlowCache(tmp_path / "par").fsck()["clean"]
