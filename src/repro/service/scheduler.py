"""Priority scheduler and worker pool behind ``repro serve``.

One asyncio dispatch loop owns a priority heap of run items (higher
``priority`` first, FIFO within a priority, items of one job in
order).  Items are settled through a strict cheapest-first ladder:

1. **stored result** — the item's ``result`` artifact is looked up in
   the :class:`~repro.core.stages.StageStore` on the shared
   :class:`~repro.core.cache.FlowCache` at dispatch time, so anything
   any previous run/sweep/job computed is served for free;
2. **in-flight dedup** — if another job's identical item (same
   content-addressed result key) is already executing, this item
   *waits on its future* instead of consuming a worker, and both jobs
   settle from one computation;
3. **execute** — a worker slot runs the item through the runner's own
   :func:`~repro.core.runner._timed_run` in a process pool, with the
   same retry/timeout/quarantine policy as ``SweepRunner``.  Workers
   build a :class:`~repro.core.stages.StageStore` on the shared cache,
   so *partially* overlapping items (e.g. two layer-split sweeps that
   share the placement prefix) still single-flight per stage across
   concurrent jobs — the cross-job generalization of PR 8's
   cross-process stage dedup.

Every settled run and terminal job transition is journaled (fsync'd)
before clients can observe it, which is what makes kill -9 + ``repro
serve --resume`` replay-exact.  All mutation happens on the event
loop; workers only compute.
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
import time
from concurrent import futures
from dataclasses import dataclass, field

from ..core import telemetry
from ..core.cache import FlowCache, netlist_fingerprint
from ..core.flow import artifact_key
from ..core.io import result_to_dict
from ..core.ppa import FailedRun
from ..core.runner import (
    RetryPolicy,
    _failed_from_transient,
    _timed_run,
    _TransientFailure,
)
from ..core.stages import StageStore
from .jobspec import DesignSpec, JobSpec, JobSpecError, McParams, parse_jobspec
from .journal import JobJournal

#: Job lifecycle states.
QUEUED, RUNNING, COMPLETED, FAILED, CANCELLED = \
    "queued", "running", "completed", "failed", "cancelled"
TERMINAL = (COMPLETED, FAILED, CANCELLED)

#: How each settled run was obtained.
VIA_EXECUTED, VIA_CACHE, VIA_DEDUP, VIA_RESUMED = \
    "executed", "cache", "dedup", "resumed"


def _mc_worker(factory, config, mc: McParams, cache: FlowCache | None,
               jobs: int = 1) -> dict:
    # Module-level so the process pool can pickle it.  One MC study is
    # a single scheduler item; its internal sample fan-out stays
    # bounded (``jobs``) so MC jobs cannot starve flow jobs of workers.
    from ..variation import VariationModel, run_monte_carlo, signoff
    model = VariationModel.for_arch(
        config.arch, overlay_sigma_nm=mc.overlay_sigma_nm,
        cd_sigma=mc.cd_sigma, rc_sigma=mc.rc_sigma)
    study = run_monte_carlo(factory, config, model=model,
                            samples=mc.samples, seed=mc.seed or None,
                            jobs=jobs, cache=cache)
    report = signoff(study).to_dict()
    report["failed_samples"] = len(study.failed)
    report["nominal_cached"] = study.nominal_cached
    return report


@dataclass
class Job:
    """One accepted job and everything a status response needs."""

    id: str
    spec: JobSpec
    state: str = QUEUED
    #: Settled presentation records by item index.
    records: dict[int, dict] = field(default_factory=dict)
    submitted_s: float = 0.0
    #: Bumped on every observable change; event streams wait on it.
    version: int = 0
    error: str = ""

    @property
    def done(self) -> int:
        return len(self.records)

    @property
    def total(self) -> int:
        return len(self.spec.items)

    def to_dict(self, full: bool = True) -> dict:
        doc = {
            "id": self.id,
            "kind": self.spec.kind,
            "tag": self.spec.tag,
            "priority": self.spec.priority,
            "state": self.state,
            "done": self.done,
            "total": self.total,
            "fingerprint": self.spec.fingerprint(),
            "submitted_s": self.submitted_s,
            "version": self.version,
        }
        if self.error:
            doc["error"] = self.error
        if full:
            doc["runs"] = [self.records.get(i) for i in range(self.total)]
        return doc


class Scheduler:
    """Owns the queue, the worker pool, the journal and the counters.

    Construction is cheap and loop-free; :meth:`start` must run on the
    event loop before the first :meth:`submit`.
    """

    def __init__(self, cache: FlowCache | None = None, workers: int = 2,
                 journal: JobJournal | None = None,
                 retry: RetryPolicy | None = None,
                 max_runs: int = 256) -> None:
        self.cache = cache
        self._store = StageStore(cache) if cache is not None else None
        self.workers = max(1, workers)
        self.journal = journal
        self.retry = retry if retry is not None else RetryPolicy.from_env()
        self.max_runs = max_runs
        self.jobs: dict[str, Job] = {}
        self.counters: dict[str, float] = {}
        self.started_s = time.time()
        self._seq = itertools.count(1)
        self._order = itertools.count()
        self._heap: list[tuple[int, int, int, str]] = []
        self._job_seq: dict[str, int] = {}
        self._inflight: dict[str, asyncio.Future] = {}
        self._fingerprints: dict[DesignSpec, str] = {}
        self._tasks: set[asyncio.Task] = set()
        self._pool: futures.Executor | None = None
        self._pool_kind = "none"
        self._stopping = False

    # -- lifecycle -----------------------------------------------------------
    async def start(self) -> None:
        """Bind to the running loop, build the pool, replay the journal."""
        self._loop = asyncio.get_running_loop()
        self._wake = asyncio.Event()
        self.changed = asyncio.Condition()
        self._idle = self.workers
        self._make_pool()
        if self.journal is not None:
            self._replay()
        self._dispatcher = asyncio.create_task(self._dispatch_loop())

    async def stop(self) -> None:
        """Drain nothing — cancel the dispatcher and the pool."""
        self._stopping = True
        self._dispatcher.cancel()
        for task in list(self._tasks):
            task.cancel()
        await asyncio.gather(self._dispatcher, *self._tasks,
                             return_exceptions=True)
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
        if self.journal is not None:
            self.journal.close()

    def _make_pool(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
        try:
            self._pool = futures.ProcessPoolExecutor(
                max_workers=self.workers)
            self._pool_kind = "process"
        except (OSError, ImportError):
            # No usable multiprocessing on this host: threads still
            # give correct (if GIL-bound) service; the per-run alarm
            # degrades to the parent-side timeout in _timed_run.
            self._pool = futures.ThreadPoolExecutor(
                max_workers=self.workers)
            self._pool_kind = "thread"

    def _replay(self) -> None:
        """Rebuild jobs from the journal; requeue the unfinished."""
        for replayed in self.journal.replay():
            try:
                spec = parse_jobspec(replayed.spec_doc,
                                     max_runs=self.max_runs,
                                     default_retry=self.retry)
            except JobSpecError as exc:
                # The identity header makes this near-impossible (same
                # code replays the same expansion), but never crash a
                # resume over one bad line.
                job = Job(id=replayed.id,
                          spec=JobSpec(kind="run", design=DesignSpec(),
                                       items=(), raw=replayed.spec_doc),
                          state=FAILED,
                          error=f"spec no longer parses: {exc}")
                self.jobs[job.id] = job
                continue
            job = Job(id=replayed.id, spec=spec,
                      submitted_s=replayed.submitted_s)
            job.records = {i: rec for i, rec in replayed.records.items()
                           if 0 <= i < job.total}
            self._count("service.runs.resumed", len(job.records))
            if replayed.state in TERMINAL:
                job.state = replayed.state
            elif job.done >= job.total:
                # Crash landed between the last run line and the state
                # line: finish the transition now (journaled again).
                job.state = COMPLETED if self._all_ok(job) else FAILED
                self.journal.job_state(job.id, job.state)
            else:
                job.state = QUEUED
                self._count("service.jobs.resumed")
                self._enqueue(job, only_missing=True)
            self.jobs[job.id] = job
        # Seed the id counter past everything replayed.
        used = [int(jid[1:]) for jid in self.jobs
                if jid.startswith("j") and jid[1:].isdigit()]
        self._seq = itertools.count(max(used, default=0) + 1)

    # -- submission / query (event-loop only) --------------------------------
    def submit(self, doc: dict) -> Job:
        """Validate, journal and enqueue one client document."""
        if self._stopping:
            raise JobSpecError("server is shutting down")
        spec = parse_jobspec(doc, max_runs=self.max_runs,
                             default_retry=self.retry)
        job = Job(id=f"j{next(self._seq):04d}", spec=spec,
                  submitted_s=time.time())
        self.jobs[job.id] = job
        if self.journal is not None:
            self.journal.job_submitted(job.id, spec.raw, job.submitted_s)
        self._count("service.jobs.submitted")
        self._enqueue(job)
        return job

    def cancel(self, job_id: str) -> Job:
        """Cancel a job; already-running items finish but stop counting."""
        job = self.jobs[job_id]
        if job.state not in TERMINAL:
            job.state = CANCELLED
            if self.journal is not None:
                self.journal.job_state(job.id, CANCELLED)
            self._count("service.jobs.cancelled")
            self._bump(job)
        return job

    def stats(self) -> dict:
        states: dict[str, int] = {}
        for job in self.jobs.values():
            states[job.state] = states.get(job.state, 0) + 1
        return {
            "workers": self.workers,
            "pool": self._pool_kind,
            "idle": self._idle,
            "queued_items": len(self._heap),
            "inflight_keys": len(self._inflight),
            "runs_settled": telemetry.counter_total(self.counters,
                                                    "service.runs"),
            "jobs": states,
            "uptime_s": round(time.time() - self.started_s, 3),
            "counters": {k: self.counters[k]
                         for k in sorted(self.counters)},
        }

    # -- dispatch ------------------------------------------------------------
    def _enqueue(self, job: Job, only_missing: bool = False) -> None:
        seq = self._job_seq.setdefault(job.id, next(self._order))
        for index in range(job.total):
            if only_missing and index in job.records:
                continue
            heapq.heappush(self._heap,
                           (-job.spec.priority, seq, index, job.id))
        self._wake.set()

    def _fingerprint(self, design: DesignSpec) -> str:
        fp = self._fingerprints.get(design)
        if fp is None:
            fp = netlist_fingerprint(design())
            self._fingerprints[design] = fp
        return fp

    def _result_key(self, job: Job, index: int) -> str:
        config = job.spec.items[index].config
        version = self.cache.version if self.cache is not None else None
        key = artifact_key("result", config,
                           self._fingerprint(job.spec.design),
                           version=version)
        if job.spec.kind == "mc":
            # MC studies are not stored as results; give them their
            # own in-flight dedup namespace.
            key = f"mc-{job.spec.mc.samples}-{job.spec.mc.seed}-{key}"
        return key

    async def _dispatch_loop(self) -> None:
        while True:
            await self._wake.wait()
            self._wake.clear()
            while self._heap:
                _prio, _seq, index, job_id = self._heap[0]
                job = self.jobs.get(job_id)
                if job is None or job.state == CANCELLED \
                        or index in job.records:
                    heapq.heappop(self._heap)
                    continue
                key = self._result_key(job, index)
                if key in self._inflight:
                    heapq.heappop(self._heap)
                    self._spawn(self._await_inflight(job, index, key))
                    continue
                hit = None
                if job.spec.kind != "mc" and self._store is not None:
                    hit = self._store.result(key)
                if hit is not None:
                    heapq.heappop(self._heap)
                    self._settle(job, index, self._record(
                        job, index, hit, 0.0, VIA_CACHE))
                    continue
                if self._idle <= 0:
                    break  # strict priority: nothing jumps the queue
                heapq.heappop(self._heap)
                self._idle -= 1
                self._inflight[key] = self._loop.create_future()
                if job.state == QUEUED:
                    job.state = RUNNING
                    self._bump(job)
                self._spawn(self._execute(job, index, key))

    def _spawn(self, coro) -> None:
        task = asyncio.create_task(coro)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _await_inflight(self, job: Job, index: int, key: str) -> None:
        record = dict(await self._inflight[key])
        record["via"] = VIA_DEDUP
        record["label"] = job.spec.items[index].label
        self._settle(job, index, record)

    async def _execute(self, job: Job, index: int, key: str) -> None:
        """Run one item on a worker with the full retry policy."""
        spec, config = job.spec, job.spec.items[index].config
        retry = spec.retry
        attempt, delay = 1, 0.0
        record: dict | None = None
        try:
            while True:
                try:
                    if spec.kind == "mc":
                        report = await self._loop.run_in_executor(
                            self._pool, _mc_worker, spec.design, config,
                            spec.mc, self.cache)
                        record = {
                            "label": spec.items[index].label, "ok": True,
                            "result": report, "wall_s": 0.0,
                            "via": VIA_EXECUTED, "attempts": attempt,
                        }
                        break
                    outcome = await self._loop.run_in_executor(
                        self._pool, _timed_run, spec.design, config,
                        False, retry.timeout_s, attempt, delay,
                        self.cache)
                except futures.process.BrokenProcessPool:
                    self._make_pool()
                    outcome = (_TransientFailure(
                        stage="", cause="WorkerDied",
                        message="worker process died"), 0.0, None, {})
                except (OSError, RuntimeError) as exc:
                    outcome = (_TransientFailure(
                        stage="", cause=type(exc).__name__,
                        message=str(exc)), 0.0, None, {})
                result, wall = outcome[0], outcome[1]
                if len(outcome) > 3 and outcome[3]:
                    telemetry.merge_counters(self.counters, outcome[3])
                if isinstance(result, _TransientFailure):
                    if result.cause == "RunTimeout":
                        self._count("service.runs.timeouts")
                    if attempt < retry.max_attempts:
                        self._count("service.runs.retries")
                        delay = retry.backoff_s(attempt)
                        attempt += 1
                        continue
                    result = _failed_from_transient(config, result, attempt)
                if self._store is not None:
                    self._store.put_result(key, result)
                if isinstance(result, FailedRun) and result.quarantined:
                    self._count("service.runs.quarantined")
                record = self._record(job, index, result, wall,
                                      VIA_EXECUTED, attempts=attempt)
                break
        except asyncio.CancelledError:
            record = None
            raise
        except Exception as exc:  # never lose a worker slot to a bug
            record = {
                "label": spec.items[index].label, "ok": False,
                "result": {"failure": f"{type(exc).__name__}: {exc}"},
                "wall_s": 0.0, "via": VIA_EXECUTED, "attempts": attempt,
            }
        finally:
            self._idle += 1
            future = self._inflight.pop(key, None)
            if future is not None and not future.done():
                if record is None:
                    future.cancel()
                else:
                    future.set_result(record)
            self._wake.set()
        self._settle(job, index, record)

    # -- settlement ----------------------------------------------------------
    def _record(self, job: Job, index: int, result, wall_s: float,
                via: str, attempts: int = 1) -> dict:
        return {
            "label": job.spec.items[index].label,
            "ok": not isinstance(result, FailedRun),
            "result": result_to_dict(result),
            "wall_s": round(wall_s, 6),
            "via": via,
            "attempts": attempts,
        }

    @staticmethod
    def _all_ok(job: Job) -> bool:
        return all(rec.get("ok") for rec in job.records.values())

    def _settle(self, job: Job, index: int, record: dict) -> None:
        if index in job.records:
            return  # cancelled-then-requeued duplicates settle once
        job.records[index] = record
        self._count(f"service.runs.{record['via']}")
        if self.journal is not None:
            self.journal.run_settled(job.id, index, record)
        if job.state not in TERMINAL and job.done >= job.total:
            job.state = COMPLETED if self._all_ok(job) else FAILED
            if self.journal is not None:
                self.journal.job_state(job.id, job.state)
            self._count(f"service.jobs.{job.state}")
        self._bump(job)

    def _bump(self, job: Job) -> None:
        job.version += 1
        self._spawn(self._notify())

    async def _notify(self) -> None:
        async with self.changed:
            self.changed.notify_all()

    def _count(self, name: str, value: float = 1) -> None:
        if value:
            self.counters[name] = self.counters.get(name, 0) + value
