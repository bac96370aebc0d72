"""The one execution engine: every flow run goes through :class:`Engine`.

The paper's results are sweeps — dozens of independent full-flow runs
over utilization grids, pin-density DoEs and layer splits — plus
Monte-Carlo studies over one layout.  The CLI, the ``scripts/run_*.py``
scripts, :mod:`repro.core.sweeps`, :mod:`repro.core.doe`, the benchmark
and ``repro serve`` all dispatch them through one asyncio loop:

* **one priority heap** of ``(job, item)`` entries: higher priority
  first, FIFO within a priority, a job's items in order;
* **one cheapest-first ladder** per item: its stored ``result``
  artifact in the :class:`~repro.core.stages.StageStore` (keyed by
  :func:`~repro.core.flow.artifact_key`), else the future of an
  identical item already executing (**in-flight dedup**: identical
  items execute once, across jobs), else an execution slot;
* **one attempt loop**: transient failures (worker death, ``OSError``,
  timeouts, :class:`~repro.core.errors.TransientError`) are retried up
  to :attr:`RetryPolicy.max_attempts` with exponential backoff; a
  ``SIGALRM`` inside each run turns a hung stage into a retryable
  :class:`~repro.core.errors.RunTimeout`, and a parent-side watchdog
  quarantines workers the alarm cannot reach; a
  :class:`BrokenProcessPool` costs one pool rebuild however many runs
  saw it, then each of those runs retries as ``WorkerDied``; whatever
  still fails becomes a quarantined
  :class:`~repro.core.ppa.FailedRun` — one bad run never aborts a
  sweep;
* **one fault rule**: while a flow fault plan is active
  (:mod:`repro.core.faults`) the store is neither read nor written, so
  injected failures can never poison real results;
* **one journal** (:class:`~repro.core.journal.JobJournal`): every
  settled run is appended, fsync'd, with its result key and payload.

Executions run in a :class:`concurrent.futures.ProcessPoolExecutor`,
except on a private loop with one worker or a single miss, where they
run in-process (``SIGALRM`` works, library caches stay warm), and for
unpicklable factories, which fall back in-process.

:class:`SweepRunner` is the library front end: each
:meth:`~SweepRunner.run_records` call submits one job and drives it to
completion on a private event loop; results come back in submission
order.  :class:`repro.service.Scheduler` is the same engine behind
HTTP.  Both count run-level events once, as ``runner.*`` counters
(docs/observability.md); :class:`SweepStats` is derived from them.
"""

from __future__ import annotations

import asyncio
import dataclasses
import heapq
import itertools
import math
import os
import pickle
import signal
import time
from concurrent import futures
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from ..netlist import Netlist
from ..pnr import PlacementError
from . import faults as faults_mod
from . import telemetry
from .cache import (
    FlowCache,
    cache_from_env,
    netlist_fingerprint,
    result_from_payload,
    result_to_payload,
)
from .config import FlowConfig
from .errors import FlowError, RunTimeout, wrap_stage_error
from .flow import artifact_key, run_flow
from .io import result_to_dict
from .journal import JobJournal, next_job_number
from .ppa import FailedRun, PPAResult
from .stages import StageStore

#: Environment variable supplying the default worker count.
JOBS_ENV = "REPRO_JOBS"
#: Environment variable supplying the default per-run timeout, seconds.
TIMEOUT_ENV = "REPRO_TIMEOUT"
#: Environment variable supplying the default max attempts per run.
RETRIES_ENV = "REPRO_RETRIES"
#: Environment variable overriding a script's default checkpoint path.
CHECKPOINT_ENV = "REPRO_CHECKPOINT"

#: Extra parent-side patience beyond the per-run timeout before the
#: watchdog declares a worker wedged (the in-worker alarm should always
#: fire first; the watchdog exists for workers it cannot reach).
WATCHDOG_GRACE_S = 30.0

#: Job lifecycle states.
QUEUED, RUNNING, COMPLETED, FAILED, CANCELLED = \
    "queued", "running", "completed", "failed", "cancelled"
TERMINAL = (COMPLETED, FAILED, CANCELLED)

#: How each settled run was obtained.
VIA_EXECUTED, VIA_CACHE, VIA_DEDUP, VIA_RESUMED = \
    "executed", "cache", "dedup", "resumed"


def resolve_jobs(jobs: int | None = None) -> int:
    """Effective worker count: explicit > ``$REPRO_JOBS`` > 1 (serial).

    ``0`` (or any non-positive count) means one worker per CPU core.
    """
    if jobs is None:
        raw = os.environ.get(JOBS_ENV, "").strip()
        try:
            jobs = int(raw) if raw else 1
        except ValueError:
            jobs = 1
    if jobs <= 0:
        jobs = os.cpu_count() or 1
    return jobs


def script_runner(default_checkpoint: str,
                  jobs: int | None = None) -> SweepRunner:
    """The one-line runner for ``scripts/run_*.py`` batch drivers.

    Artifact store on unless ``$REPRO_NO_CACHE`` is set, crash-safe
    journal at ``$REPRO_CHECKPOINT`` (default ``default_checkpoint``;
    empty disables it), workers from ``$REPRO_JOBS`` — the exact policy
    every headline script used to spell out by hand.
    """
    checkpoint = os.environ.get(CHECKPOINT_ENV, default_checkpoint)
    return SweepRunner(jobs=jobs, cache=cache_from_env(),
                       checkpoint=checkpoint or None)


def _env_float(name: str) -> float | None:
    """A positive finite float from ``$name``; anything else reads as unset."""
    raw = os.environ.get(name, "").strip()
    if not raw:
        return None
    try:
        value = float(raw)
    except ValueError:
        return None
    return value if math.isfinite(value) and value > 0 else None


@dataclass(frozen=True)
class RetryPolicy:
    """How the runner treats a run that fails or hangs.

    ``max_attempts`` bounds the total tries per run (first run plus
    retries) for *transient* failures; fatal failures are quarantined
    on the first attempt.  Backoff before attempt ``n+1`` is
    ``backoff_base_s * backoff_factor**(n-1)`` capped at
    ``backoff_cap_s``.  ``timeout_s`` is the per-run wall-clock budget
    (``None`` = unlimited).
    """

    max_attempts: int = 3
    backoff_base_s: float = 0.25
    backoff_factor: float = 2.0
    backoff_cap_s: float = 8.0
    timeout_s: float | None = None

    @classmethod
    def from_env(cls) -> "RetryPolicy":
        """Defaults, overridden by ``$REPRO_TIMEOUT``/``$REPRO_RETRIES``."""
        kwargs = {}
        timeout = _env_float(TIMEOUT_ENV)
        if timeout is not None:
            kwargs["timeout_s"] = timeout
        retries = _env_float(RETRIES_ENV)
        if retries is not None:
            kwargs["max_attempts"] = max(1, int(retries))
        return cls(**kwargs)

    def backoff_s(self, attempt: int) -> float:
        """Delay before retrying after the ``attempt``-th try failed."""
        if self.backoff_base_s <= 0:
            return 0.0
        delay = self.backoff_base_s * self.backoff_factor ** max(0, attempt - 1)
        return min(delay, self.backoff_cap_s)


@dataclass(frozen=True)
class _TransientFailure:
    """A retryable failure shipped back from a worker (picklable)."""

    stage: str
    cause: str
    message: str


def _failed_from_error(config: FlowConfig, err: FlowError,
                       attempts: int = 1) -> FailedRun:
    """Quarantine one structured flow error as a :class:`FailedRun`."""
    return FailedRun(
        label=config.label,
        target_utilization=config.utilization,
        reason=str(err),
        stage=err.stage,
        cause=err.cause or type(err).__name__,
        attempts=attempts,
        quarantined=not isinstance(err, PlacementError),
    )


def _failed_from_transient(config: FlowConfig, failure: _TransientFailure,
                           attempts: int) -> FailedRun:
    """Quarantine a transient failure whose retries are exhausted."""
    return FailedRun(
        label=config.label,
        target_utilization=config.utilization,
        reason=failure.message,
        stage=failure.stage,
        cause=failure.cause,
        attempts=attempts,
        quarantined=True,
    )


def run_once(netlist_factory: Callable[[], Netlist],
             config: FlowConfig,
             tracer: "telemetry.Tracer | None" = None,
             store: StageStore | None = None
             ) -> PPAResult | FailedRun:
    """Run one flow; any flow failure becomes a :class:`FailedRun`.

    Single attempt, no timeout — the retry/timeout machinery lives in
    :class:`SweepRunner`.  Placement infeasibility yields the classic
    non-quarantined record; every other
    :class:`~repro.core.errors.FlowError` is quarantined with its stage
    and cause attached.  ``store`` optionally replays cached stage
    prefixes (see :mod:`repro.core.stages`).
    """
    try:
        return run_flow(netlist_factory, config, tracer=tracer, store=store)
    except FlowError as exc:
        return _failed_from_error(config, exc)


@contextmanager
def _run_alarm(timeout_s: float | None, config: FlowConfig):
    """Arm a wall-clock alarm that aborts the run with a RunTimeout.

    Uses ``SIGALRM``; silently a no-op where unavailable (non-POSIX,
    non-main thread) — the parent-side watchdog covers those workers.
    """
    if not timeout_s or not hasattr(signal, "SIGALRM"):
        yield
        return

    def _on_alarm(signum, frame):
        raise RunTimeout(
            f"run exceeded its {timeout_s:g}s wall-clock budget",
            "", config.label, cause="RunTimeout")

    try:
        previous = signal.signal(signal.SIGALRM, _on_alarm)
    except ValueError:  # not the main thread: no alarm, watchdog only
        yield
        return
    signal.setitimer(signal.ITIMER_REAL, timeout_s)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _timed_run(netlist_factory: Callable[[], Netlist],
               config: FlowConfig, trace: bool = False,
               timeout_s: float | None = None, attempt: int = 1,
               cache: FlowCache | None = None,
               study: Callable | None = None) -> tuple:
    # Module-level so the process pool can pickle it as a task target.
    # Returns (result, wall_s, trace, stage-store counters).  With
    # ``trace`` the worker builds a Tracer and ships the finished
    # (picklable) Trace back.  Transient failures come back as a
    # marker so the engine can apply its retry policy; fatal ones come
    # back already quarantined.  With ``cache`` (picklable: a
    # directory) the worker builds a StageStore on it, so every worker
    # shares one on-disk per-stage artifact store — locked, so
    # concurrent missers of one stage key single-flight it
    # (repro.core.locking) even across unrelated processes.  A
    # ``study(factory, config, cache) -> dict`` (a Monte-Carlo signoff)
    # runs in place of the flow under the same timeout and failure
    # handling.
    faults_mod.set_attempt(attempt)
    tracer = telemetry.Tracer(label=config.label) if trace else None
    store = StageStore(cache) if cache is not None and study is None \
        else None
    start = time.perf_counter()
    try:
        with _run_alarm(timeout_s, config):
            if study is not None:
                result = study(netlist_factory, config, cache)
            else:
                result = run_flow(netlist_factory, config, tracer=tracer,
                                  store=store)
    except (KeyboardInterrupt, SystemExit):
        raise
    except BaseException as exc:
        err = wrap_stage_error(exc, "", config.label)
        if err.transient:
            result = _TransientFailure(stage=err.stage,
                                       cause=err.cause or type(err).__name__,
                                       message=str(err))
        else:
            result = _failed_from_error(config, err, attempts=attempt)
    wall = time.perf_counter() - start
    return (result, wall, tracer.finish() if tracer is not None else None,
            store.counters() if store is not None else {})


@dataclass(frozen=True)
class RunRecord:
    """One settled run: its config, outcome, wall time and provenance."""

    config: FlowConfig
    #: The flow's result, or a study's report dict.
    result: PPAResult | FailedRun | dict
    wall_time_s: float
    #: How it settled: ``executed``, ``cache``, ``dedup`` or ``resumed``.
    via: str = VIA_EXECUTED
    #: Tries the execution took (retries included).
    attempts: int = 1
    #: Per-run telemetry (None unless the runner traces).
    trace: telemetry.Trace | None = field(default=None, compare=False)
    #: The executing worker's stage-store counters (``stage_cache.*``).
    stage_counters: dict = field(default_factory=dict, compare=False)

    @property
    def cache_hit(self) -> bool:
        """Served from the store, or from an identical in-flight run."""
        return self.via in (VIA_CACHE, VIA_DEDUP)

    @property
    def resumed(self) -> bool:
        """Served from a journal written by an earlier invocation."""
        return self.via == VIA_RESUMED

    def to_doc(self, label: str) -> dict:
        """The JSON record ``repro serve`` shows and the journal keeps."""
        result = self.result
        return {
            "label": label,
            "ok": not isinstance(result, FailedRun),
            "result": result if isinstance(result, dict)
            else result_to_dict(result),
            "wall_s": round(self.wall_time_s, 6),
            "via": self.via,
            "attempts": self.attempts,
        }


@dataclass
class SweepStats:
    """Aggregated counters across every sweep a runner has executed."""

    runs: int = 0
    cache_hits: int = 0
    executed: int = 0
    failed: int = 0
    parallel_runs: int = 0
    serial_fallbacks: int = 0
    #: Transient-failure retries performed (each re-run counts once).
    retries: int = 0
    #: Runs that hit the per-run wall-clock timeout (before retries).
    timeouts: int = 0
    #: FailedRun records quarantined for unexpected causes (anything
    #: but plain placement infeasibility).
    quarantined: int = 0
    #: Broken or wedged process pools replaced by a fresh one.
    pool_restarts: int = 0
    #: Records served from a checkpoint journal (``--checkpoint``).
    resumed: int = 0
    #: Summed per-run wall time (serial-equivalent cost).
    run_time_s: float = 0.0
    #: End-to-end time spent inside ``run_records`` calls.
    elapsed_s: float = 0.0
    #: Sweep-level stage breakdown, merged from per-run traces (empty
    #: unless the runner traces).
    stage_time_s: dict[str, float] = field(default_factory=dict)
    #: Sweep-level counters, merged from per-run traces.
    counters: dict[str, float] = field(default_factory=dict)
    #: Stage-store replays across all executed runs (``stage_cache.*``).
    stage_hits: int = 0
    #: Stage-store misses (stages actually executed) across all runs.
    stage_misses: int = 0
    #: Per-stage store counters (``stage_cache.hit.<stage>`` /
    #: ``stage_cache.miss.<stage>``), merged from every run's store.
    stage_counters: dict[str, float] = field(default_factory=dict)

    def record(self, rec: RunRecord) -> None:
        self.runs += 1
        if rec.cache_hit:
            self.cache_hits += 1
        elif rec.resumed:
            self.resumed += 1
        else:
            self.executed += 1
            self.run_time_s += rec.wall_time_s
        if isinstance(rec.result, FailedRun):
            self.failed += 1
            if rec.result.quarantined:
                self.quarantined += 1
        if rec.trace is not None:
            self.absorb_trace(rec.trace)
        self.absorb_stage_counters(rec.stage_counters)

    def absorb_engine(self, counters: dict[str, float],
                      parallel_runs: int) -> None:
        """Add one engine's ``runner.*`` event counts."""
        self.parallel_runs += parallel_runs
        for name in ("retries", "timeouts", "pool_restarts",
                     "serial_fallbacks"):
            setattr(self, name, getattr(self, name)
                    + int(counters.get(f"runner.{name}", 0)))

    def absorb_trace(self, trace: telemetry.Trace) -> None:
        """Merge one trace into the sweep-level stage/counter totals."""
        for name, seconds in trace.stage_times().items():
            self.stage_time_s[name] = \
                self.stage_time_s.get(name, 0.0) + seconds
        telemetry.merge_counters(self.counters, trace.counters)

    def absorb_stage_counters(self, counters: dict[str, float]) -> None:
        """Merge one run's stage-store counters into the sweep totals."""
        if not counters:
            return
        self.stage_hits += int(counters.get("stage_cache.hits", 0))
        self.stage_misses += int(counters.get("stage_cache.misses", 0))
        telemetry.merge_counters(self.stage_counters, counters)

    def stage_hit_rates(self) -> dict[str, float]:
        """Per-stage store hit rate over every executed run."""
        rates: dict[str, float] = {}
        stages = {name.split(".", 2)[2] for name in self.stage_counters
                  if name.startswith(("stage_cache.hit.",
                                      "stage_cache.miss."))}
        for stage in sorted(stages):
            hits = self.stage_counters.get(f"stage_cache.hit.{stage}", 0.0)
            misses = self.stage_counters.get(f"stage_cache.miss.{stage}", 0.0)
            if hits + misses:
                rates[stage] = hits / (hits + misses)
        return rates

    def stage_summary(self) -> str:
        """The per-stage time/percentage table over every traced run."""
        return telemetry.format_stage_table(self.stage_time_s,
                                            title="sweep stage breakdown")

    def summary(self) -> str:
        parts = [
            f"{self.runs} runs",
            f"{self.cache_hits} cached",
            f"{self.executed} executed ({self.parallel_runs} parallel)",
        ]
        if self.resumed:
            parts.append(f"{self.resumed} resumed")
        if self.failed:
            parts.append(f"{self.failed} failed")
        if self.quarantined:
            parts.append(f"{self.quarantined} quarantined")
        if self.retries:
            parts.append(f"{self.retries} retries")
        if self.timeouts:
            parts.append(f"{self.timeouts} timeouts")
        if self.pool_restarts:
            parts.append(f"{self.pool_restarts} pool restarts")
        if self.serial_fallbacks:
            parts.append(f"{self.serial_fallbacks} serial fallbacks")
        if self.stage_hits or self.stage_misses:
            parts.append(f"{self.stage_hits}/"
                         f"{self.stage_hits + self.stage_misses} "
                         "stage replays")
        return (f"sweep: {', '.join(parts)} in {self.elapsed_s:.1f}s wall "
                f"({self.run_time_s:.1f}s flow time)")


@dataclass(frozen=True)
class RunItem:
    """One unit of work: a labeled flow config."""

    label: str
    config: FlowConfig


@dataclass(eq=False)
class Job:
    """Run items sharing one netlist factory, priority and retry policy."""

    id: str
    factory: Callable[[], Netlist]
    items: Sequence[RunItem]
    priority: int = 0
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: A picklable ``study(factory, config, cache) -> dict`` run in
    #: place of the flow (a Monte-Carlo signoff); never stored.
    study: Callable | None = None
    #: The ``spec`` the journal's ``job`` event records.
    doc: dict = field(default_factory=dict)
    submitted_s: float = 0.0
    state: str = QUEUED
    #: Settled records by item index.
    records: dict[int, RunRecord] = field(default_factory=dict)
    #: Result key per item, set when the job is admitted.
    keys: list[str] = field(default_factory=list)

    @property
    def done(self) -> int:
        return len(self.records)

    @property
    def total(self) -> int:
        return len(self.items)

    @property
    def ok(self) -> bool:
        return all(not isinstance(rec.result, FailedRun)
                   for rec in self.records.values())


class Engine:
    """Priority heap, cheapest-first ladder and attempt loop.

    Construction is cheap and loop-free; :meth:`start` binds the engine
    to the running loop.  ``inline`` marks a private loop (a
    :class:`SweepRunner`'s), where runs may execute on the loop thread
    itself; on a shared loop (``repro serve``) a flow never runs there.
    All mutation happens on the loop; workers only compute.
    """

    def __init__(self, cache: FlowCache | None = None, workers: int = 1,
                 retry: RetryPolicy | None = None,
                 journal: JobJournal | None = None, inline: bool = False,
                 refresh: bool = False, trace: bool = False) -> None:
        self.cache = cache
        self.workers = max(1, workers)
        self.retry = retry if retry is not None else RetryPolicy.from_env()
        self.journal = journal
        self.inline = inline
        #: Skip stored-result reads (results are still written).
        self.refresh = refresh
        #: Trace every execution (workers ship their traces back).
        self.trace = trace
        self.jobs: dict[str, Job] = {}
        #: ``runner.*`` events, plus the workers' ``stage_cache.*``.
        self.counters: dict[str, float] = {}
        #: Executions dispatched to the process pool.
        self.parallel_runs = 0
        self._store = StageStore(cache) if cache is not None else None
        self._order = itertools.count()
        self._heap: list[tuple[int, int, int, str]] = []
        self._job_seq: dict[str, int] = {}
        self._inflight: dict[str, asyncio.Future] = {}
        self._placement: dict[str, bool] = {}
        self._tasks: set[asyncio.Task] = set()
        self._pool: futures.ProcessPoolExecutor | None = None
        self._pool_size = self.workers
        self._stopping = False

    # -- lifecycle -----------------------------------------------------------
    async def start(self) -> None:
        """Bind to the running loop and start dispatching."""
        self._loop = asyncio.get_running_loop()
        self._wake = asyncio.Event()
        self._job_done = asyncio.Event()
        self._idle = self.workers
        if not self.inline:
            self._ensure_pool(self.workers)
        self._dispatcher = asyncio.create_task(self._dispatch_loop())

    async def stop(self, wait: bool = False) -> None:
        """Cancel the dispatcher, every task and the pool."""
        self._stopping = True
        self._dispatcher.cancel()
        for task in list(self._tasks):
            task.cancel()
        await asyncio.gather(self._dispatcher, *self._tasks,
                             return_exceptions=True)
        if self._pool is not None:
            self._pool.shutdown(wait=wait, cancel_futures=True)
            self._pool = None

    async def drive(self, job: Job,
                    resumable: dict[str, tuple] | None = None) -> None:
        """Start, run one job to completion, stop (a private loop)."""
        await self.start()
        try:
            self._admit(job, resumable)
            if job.state not in TERMINAL:
                await self._job_done.wait()
        finally:
            await self.stop(wait=True)

    # -- admission -----------------------------------------------------------
    def _admit(self, job: Job,
               resumable: dict[str, tuple] | None = None) -> None:
        """Register, journal and enqueue a job.

        Items whose result key is in ``resumable`` (``key -> (result,
        wall_s)`` from a journal) settle as ``resumed`` first.
        """
        resumable = resumable or {}
        self.jobs[job.id] = job
        job.keys = self._keys(job)
        if self.journal is not None:
            self.journal.job_submitted(job.id, job.doc, job.submitted_s)
        for index, key in enumerate(job.keys):
            if key in resumable:
                result, wall = resumable[key]
                self._settle(job, index, RunRecord(
                    job.items[index].config, result, wall,
                    via=VIA_RESUMED))
        self._enqueue(job)

    def _keys(self, job: Job) -> list[str]:
        """Each item's result key; a study's also covers its parameters."""
        fingerprint = netlist_fingerprint(job.factory())
        keys = [artifact_key("result", item.config, fingerprint)
                for item in job.items]
        if job.study is not None:
            keys = [f"{job.study!r}|{key}" for key in keys]
        return keys

    def _enqueue(self, job: Job) -> None:
        if not job.keys:
            job.keys = self._keys(job)
        seq = self._job_seq.setdefault(job.id, next(self._order))
        for index in range(job.total):
            if index not in job.records:
                heapq.heappush(self._heap,
                               (-job.priority, seq, index, job.id))
        self._wake.set()

    # -- dispatch ------------------------------------------------------------
    def _result_store(self, job: Job) -> StageStore | None:
        """The store for this job's results: none for studies, and none
        while a flow fault plan is active (the one fault rule)."""
        if job.study is not None or faults_mod.faults_active():
            return None
        return self._store

    async def _dispatch_loop(self) -> None:
        while True:
            await self._wake.wait()
            self._wake.clear()
            launches: list[tuple[Job, int]] = []
            while self._heap:
                _prio, _seq, index, job_id = self._heap[0]
                job = self.jobs.get(job_id)
                if job is None or job.state == CANCELLED \
                        or index in job.records:
                    heapq.heappop(self._heap)
                    continue
                key = job.keys[index]
                owner = self._inflight.get(key)
                if owner is not None:
                    heapq.heappop(self._heap)
                    self._spawn(self._await_inflight(job, index, owner))
                    continue
                if self._idle <= 0:
                    break  # strict priority: nothing jumps the queue
                heapq.heappop(self._heap)
                store = None if self.refresh else self._result_store(job)
                hit = store.result(key) if store is not None else None
                if hit is not None:
                    self._settle(job, index, RunRecord(
                        job.items[index].config, hit, 0.0, via=VIA_CACHE))
                    continue
                self._idle -= 1
                self._inflight[key] = self._loop.create_future()
                launches.append((job, index))
            lone = len(launches) == 1 and not self._heap \
                and self._idle == self.workers - 1
            for job, index in launches:
                if job.state == QUEUED:
                    job.state = RUNNING
                    self._changed(job)
                pooled = self._pooled(job, lone,
                                      len(launches) + len(self._heap))
                self._spawn(self._execute(job, index, pooled))

    def _pooled(self, job: Job, lone: bool, size: int) -> bool:
        """Where ``job`` executes, decided once, at its first launch.

        On a private loop, one worker or a lone execution runs
        in-process, exactly like a plain serial loop.  Otherwise the
        pool, unless the job's inputs do not pickle or no pool can be
        built: then in-process, counted as a serial fallback.
        """
        pooled = self._placement.get(job.id)
        if pooled is None:
            if self.inline and (self.workers == 1 or lone):
                pooled = False
            else:
                try:
                    pickle.dumps((job.factory, job.study,
                                  [item.config for item in job.items]))
                    pooled = self._ensure_pool(size)
                except Exception:
                    pooled = False
                if not pooled:
                    self._count("runner.serial_fallbacks")
            self._placement[job.id] = pooled
        return pooled

    def _ensure_pool(self, size: int) -> bool:
        if self._pool is None:
            self._pool_size = min(self.workers, max(1, size))
            try:
                self._pool = futures.ProcessPoolExecutor(
                    max_workers=self._pool_size)
            except (OSError, ImportError, NotImplementedError):
                return False
        return True

    def _retire(self, pool: futures.Executor) -> None:
        """Replace a broken or wedged pool — once, however many runs saw
        it fail."""
        if pool is not self._pool:
            return
        pool.shutdown(wait=False, cancel_futures=True)
        self._pool = None
        self._count("runner.pool_restarts")
        self._ensure_pool(self._pool_size)

    def _spawn(self, coro) -> None:
        task = asyncio.create_task(coro)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _await_inflight(self, job: Job, index: int,
                              owner: asyncio.Future) -> None:
        # ``owner`` is the future dispatch saw: the execution may settle,
        # and leave ``_inflight``, before this task first runs.
        rec = await owner
        self._settle(job, index, dataclasses.replace(
            rec, config=job.items[index].config, via=VIA_DEDUP,
            trace=None, stage_counters={}))

    # -- execution -----------------------------------------------------------
    async def _execute(self, job: Job, index: int, pooled: bool) -> None:
        """Run one item through the attempt loop, then settle it."""
        config = job.items[index].config
        if pooled:
            self.parallel_runs += 1
        rec: RunRecord | None = None
        try:
            rec = await self._attempts(job, config, pooled)
        except Exception as exc:  # never lose a slot, or its waiters, to a bug
            rec = RunRecord(config, FailedRun(
                label=config.label, target_utilization=config.utilization,
                reason=f"{type(exc).__name__}: {exc}",
                cause=type(exc).__name__, quarantined=True), 0.0)
        finally:
            self._idle += 1
            owner = self._inflight.pop(job.keys[index], None)
            if owner is not None and not owner.done():
                if rec is None:
                    owner.cancel()
                else:
                    owner.set_result(rec)
            self._wake.set()
        if isinstance(rec.result, FailedRun) and rec.result.quarantined:
            self._count("runner.quarantined")
        store = self._result_store(job)
        if store is not None:
            store.put_result(job.keys[index], rec.result)
        self._settle(job, index, rec)

    async def _attempts(self, job: Job, config: FlowConfig,
                        pooled: bool) -> RunRecord:
        """Retry transient failures with backoff; then quarantine."""
        retry = job.retry
        cache = None if faults_mod.faults_active() else self.cache
        attempt = 1
        while True:
            result, wall, trace, counters = await self._attempt(
                job, config, attempt, cache, pooled)
            telemetry.merge_counters(self.counters, counters)
            if isinstance(result, _TransientFailure):
                if result.cause == "RunTimeout":
                    self._count("runner.timeouts")
                if attempt < retry.max_attempts:
                    self._count("runner.retries")
                    await asyncio.sleep(retry.backoff_s(attempt))
                    attempt += 1
                    continue
                result = _failed_from_transient(config, result, attempt)
            return RunRecord(config, result, wall, attempts=attempt,
                             trace=trace, stage_counters=counters)

    async def _attempt(self, job: Job, config: FlowConfig, attempt: int,
                       cache: FlowCache | None, pooled: bool) -> tuple:
        """One try, in-process or on the pool under the watchdog."""
        timeout = job.retry.timeout_s
        args = (job.factory, config, self.trace, timeout, attempt, cache,
                job.study)
        pool = self._pool if pooled else None
        if pool is None:
            if self.inline:
                return _timed_run(*args)
            return await asyncio.to_thread(_timed_run, *args)
        try:
            return await asyncio.wait_for(
                self._loop.run_in_executor(pool, _timed_run, *args),
                None if timeout is None else timeout + WATCHDOG_GRACE_S)
        except asyncio.TimeoutError:
            # Wedged beyond the in-worker alarm's reach: quarantine it
            # and retire the pool so the stuck slot is not reused.
            self._count("runner.timeouts")
            self._retire(pool)
            return (FailedRun(
                label=config.label, target_utilization=config.utilization,
                reason=(f"worker wedged past the {timeout:g}s timeout "
                        "and its grace period"),
                stage="", cause="RunTimeout", attempts=attempt,
                quarantined=True), 0.0, None, {})
        except futures.process.BrokenProcessPool:
            self._retire(pool)
            return (_TransientFailure(
                stage="", cause="WorkerDied",
                message="worker process died (BrokenProcessPool)"),
                0.0, None, {})
        except (OSError, RuntimeError) as exc:
            # Transport-level failure: a transient failure of this run.
            return (_TransientFailure(stage="", cause=type(exc).__name__,
                                      message=str(exc)), 0.0, None, {})

    # -- settlement ----------------------------------------------------------
    def _settle(self, job: Job, index: int, rec: RunRecord) -> None:
        if index in job.records:
            return  # cancelled-then-requeued duplicates settle once
        job.records[index] = rec
        self._count(f"runner.{rec.via}")
        if self.journal is not None and rec.via != VIA_RESUMED:
            self.journal.run_settled(
                job.id, index, rec.to_doc(job.items[index].label),
                job.keys[index], result_to_payload(rec.result))
        if job.state not in TERMINAL and job.done >= job.total:
            self._finish(job, COMPLETED if job.ok else FAILED)
        self._changed(job)

    def _finish(self, job: Job, state: str) -> None:
        job.state = state
        if self.journal is not None:
            self.journal.job_state(job.id, state)

    def _changed(self, job: Job) -> None:
        """A job's observable state changed (front ends extend this)."""
        if job.state in TERMINAL:
            self._job_done.set()

    def _count(self, name: str, value: float = 1) -> None:
        if value:
            self.counters[name] = self.counters.get(name, 0) + value


class SweepRunner:
    """The library front end of the :class:`Engine`.

    One runner can serve many sweeps; its :attr:`stats` accumulate
    across calls.  With ``jobs=1`` (the default without ``$REPRO_JOBS``)
    every run executes in-process, which keeps library master caches
    warm.  The retry policy applies identically in-process and on the
    pool, so ``--jobs`` never changes what a sweep returns.
    """

    def __init__(self, jobs: int | None = None,
                 cache: FlowCache | None = None,
                 trace_dir: str | os.PathLike | None = None,
                 retry: RetryPolicy | None = None,
                 checkpoint: str | os.PathLike | None = None,
                 resume: bool = True,
                 refresh: bool = False) -> None:
        self.jobs = resolve_jobs(jobs)
        self.cache = cache
        #: With ``refresh`` stored results are not *read* (every config
        #: re-runs its flow) but results are still written and the
        #: stage entries stay active — so a refreshed sweep replays
        #: warm stage prefixes instead of recomputing them (CLI
        #: ``--refresh``).
        self.refresh = refresh
        self.retry = retry if retry is not None else RetryPolicy.from_env()
        #: Path of the crash-safe run journal (None = disabled).
        self.checkpoint = Path(checkpoint) if checkpoint is not None else None
        #: ``False`` truncates the journal on first use (``--no-resume``);
        #: later calls of this runner append to what it wrote.
        self.resume = resume
        self.stats = SweepStats()
        #: When set, every executed run is traced (worker processes
        #: ship their traces back) and one ``run-NNNN.jsonl`` file per
        #: run lands here, plus ``sweep-NNNN.jsonl`` files holding the
        #: parent-side cache-hit spans and ``runner.*`` counters;
        #: ``repro trace report <dir>`` aggregates them.
        self.trace_dir = Path(trace_dir) if trace_dir is not None else None
        self._trace_seq = 0
        self._journal_opened = False

    # -- public API ---------------------------------------------------------
    def run_one(self, netlist_factory: Callable[[], Netlist],
                config: FlowConfig) -> PPAResult | FailedRun:
        return self.run_records(netlist_factory, [config])[0].result

    def run_many(self, netlist_factory: Callable[[], Netlist],
                 configs: Sequence[FlowConfig]
                 ) -> list[PPAResult | FailedRun]:
        return [rec.result
                for rec in self.run_records(netlist_factory, configs)]

    def run_records(self, netlist_factory: Callable[[], Netlist],
                    configs: Sequence[FlowConfig]) -> list[RunRecord]:
        """Run every config as one job; records come back in order."""
        configs = list(configs)
        started = time.perf_counter()
        tracing = self.trace_dir is not None
        sweep_tracer = telemetry.Tracer(label="sweep") if tracing \
            else telemetry.NULL_TRACER
        records: list[RunRecord] = []
        if configs:
            journal, resumable, number = self._open_journal()
            engine = Engine(cache=self.cache, workers=self.jobs,
                            retry=self.retry, journal=journal, inline=True,
                            refresh=self.refresh, trace=tracing)
            job = Job(id=f"j{number:04d}", factory=netlist_factory,
                      items=[RunItem(c.label, c) for c in configs],
                      retry=self.retry, submitted_s=time.time(),
                      doc={"kind": "runs", "count": len(configs)})
            # A bare private loop: asyncio.run's signal-handler swap and
            # executor shutdown would cost more than a warm sweep's reads.
            loop = asyncio.new_event_loop()
            try:
                # Stored-result hits land on the sweep trace as
                # zero-cost ``cache_hit`` spans (StageStore.result).
                with telemetry.activate(sweep_tracer):
                    loop.run_until_complete(engine.drive(job, resumable))
            finally:
                loop.close()
                if journal is not None:
                    journal.close()
            records = [job.records[i] for i in range(len(configs))]
            for name, value in sorted(engine.counters.items()):
                if name.startswith("runner."):
                    sweep_tracer.count(name, value)
            self.stats.absorb_engine(engine.counters, engine.parallel_runs)
        for rec in records:
            self.stats.record(rec)
        if tracing:
            self._write_traces(records, sweep_tracer)
        self.stats.elapsed_s += time.perf_counter() - started
        return records

    # -- internals ----------------------------------------------------------
    def _open_journal(self) -> tuple[JobJournal | None, dict, int]:
        """The checkpoint journal, what it can resume (``result key ->
        (result, wall_s)``) and the next job number."""
        if self.checkpoint is None:
            return None, {}, 1
        journal = JobJournal(self.checkpoint,
                             resume=self.resume or self._journal_opened)
        self._journal_opened = True
        jobs = journal.replay()
        resumable = {}
        for replayed in jobs:
            for index, (key, payload) in replayed.payloads.items():
                resumable[key] = (result_from_payload(payload),
                                  replayed.records[index].get("wall_s", 0.0))
        return journal, resumable, next_job_number(j.id for j in jobs)

    def _write_traces(self, records: list[RunRecord],
                      sweep_tracer: "telemetry.Tracer") -> None:
        """Emit one JSONL file per executed run, plus the sweep trace."""
        for rec in records:
            if rec.trace is not None:
                rec.trace.write(
                    self.trace_dir / f"run-{self._trace_seq:04d}.jsonl")
                self._trace_seq += 1
        sweep_trace = sweep_tracer.finish()
        if sweep_trace.spans or sweep_trace.counters:
            self.stats.absorb_trace(sweep_trace)
            sweep_trace.write(
                self.trace_dir / f"sweep-{self._trace_seq:04d}.jsonl")
            self._trace_seq += 1
