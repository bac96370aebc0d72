"""Fault-tolerant parallel sweep execution with caching and checkpoints.

The paper's headline figures are all sweeps — dozens of independent
full-flow runs over utilization grids and pin-density DoEs — so the
:class:`SweepRunner` is the one place fan-out, caching, timing and
failure handling live for every sweep entry point
(``repro.core.sweeps``, ``repro.core.doe``, the CLI and the
``scripts/run_*.py`` drivers):

* ``jobs`` workers on a :class:`concurrent.futures.ProcessPoolExecutor`
  (``jobs=None`` reads ``$REPRO_JOBS``, defaulting to serial; ``jobs=0``
  means one worker per core);
* results come back in submission order regardless of completion order,
  so parallel sweeps are drop-in replacements for the serial loops;
* **quarantine**: a run that raises — placement infeasibility, a guard
  violation, an injected fault, anything — becomes a structured
  :class:`~repro.core.ppa.FailedRun` carrying the failing stage, cause
  and attempt count.  One bad run never aborts a sweep; the healthy
  points always come back;
* **retry with backoff**: transient failures (worker death, ``OSError``,
  timeouts, :class:`~repro.core.errors.TransientError`) are retried up
  to :attr:`RetryPolicy.max_attempts` with exponential backoff before
  being quarantined;
* **per-run timeout**: :attr:`RetryPolicy.timeout_s` arms a wall-clock
  alarm inside each run (``SIGALRM``), so a hung stage becomes a
  retryable :class:`~repro.core.errors.RunTimeout` instead of wedging
  the sweep, plus a parent-side watchdog for workers the alarm cannot
  reach;
* **pool salvage**: a :class:`BrokenProcessPool` no longer throws away
  completed work — finished futures are harvested and only the
  unfinished configs are re-dispatched to a fresh pool (counted in
  :attr:`SweepStats.pool_restarts`); repeated breakage degrades the
  remainder, not the whole sweep, to the serial path;
* **checkpoint/resume**: with a :class:`SweepCheckpoint` attached,
  every settled run is appended (fsync'd) to a JSONL file keyed by the
  sweep's content identity, so an interrupted sweep resumes exactly
  where it crashed (``--resume``);
* with a :class:`~repro.core.cache.FlowCache` attached, every point is
  looked up as a ``result`` artifact of the
  :class:`~repro.core.stages.StageStore` (keyed by
  :func:`~repro.core.flow.artifact_key`), only the misses are executed
  — each through the same store, replaying any stage prefix an earlier
  walk stored — and their results are stored in turn.  When fault
  injection is active (:mod:`repro.core.faults`) the cache is bypassed
  so injected failures can never poison real results.

Per-run wall time and hit/miss/retry/timeout/quarantine counters
accumulate in :attr:`SweepRunner.stats` and are printed by the CLI
sweep summaries; when tracing, the same events are counted on the
sweep trace (``runner.*``) so ``repro trace report`` surfaces them.
"""

from __future__ import annotations

import hashlib
import json
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
    netlist_fingerprint,
    result_from_payload,
    result_to_payload,
)
from .config import FlowConfig
from .errors import FlowError, RunTimeout, wrap_stage_error
from .flow import artifact_key, run_flow
from .journal import JsonlJournal
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
    checkpoint at ``$REPRO_CHECKPOINT`` (default ``default_checkpoint``;
    empty disables it), workers from ``$REPRO_JOBS`` — the exact policy
    every headline script used to spell out by hand.
    """
    from .cache import cache_from_env
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
               delay_s: float = 0.0, cache: FlowCache | None = None
               ) -> tuple[PPAResult | FailedRun | _TransientFailure, float,
                          telemetry.Trace | None, dict[str, float]]:
    # Module-level so the process pool can pickle it as a task target.
    # With ``trace`` the worker builds a Tracer and ships the finished
    # (picklable) Trace back to the parent alongside the result.
    # Transient failures come back as a marker so the parent can apply
    # its retry policy; fatal ones come back already quarantined.
    # With ``cache`` (picklable: a directory + version) the worker
    # builds a StageStore on it, so every worker shares one on-disk
    # per-stage artifact store — locked, so concurrent missers of one
    # stage key single-flight it (repro.core.locking) even across
    # unrelated sweep processes; the store's hit/miss counters travel
    # back as the outcome's fourth element.
    if delay_s > 0:
        time.sleep(delay_s)  # retry backoff, served in the worker
    faults_mod.set_attempt(attempt)
    tracer = telemetry.Tracer(label=config.label) if trace else None
    store = StageStore(cache) if cache is not None else None
    start = time.perf_counter()
    try:
        with _run_alarm(timeout_s, config):
            result: PPAResult | FailedRun | _TransientFailure = \
                run_flow(netlist_factory, config, tracer=tracer, store=store)
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
    """One sweep point: its config, outcome, wall time and provenance."""

    config: FlowConfig
    result: PPAResult | FailedRun
    wall_time_s: float
    cache_hit: bool = False
    #: Served from a sweep checkpoint written by an earlier, interrupted
    #: invocation (``--resume``).
    resumed: bool = False
    #: Per-run telemetry (None unless the runner traces).
    trace: telemetry.Trace | None = field(default=None, compare=False)


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
    #: Broken process pools salvaged (completed futures kept, the
    #: unfinished remainder re-dispatched to a fresh pool).
    pool_restarts: int = 0
    #: Records served from a sweep checkpoint (``--resume``).
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


class SweepCheckpoint:
    """Append-only, crash-safe record of a sweep's settled runs.

    A :class:`~repro.core.journal.JsonlJournal` whose header binds the
    file to one sweep identity (the hash of every run's
    content-addressed key, so a checkpoint can never resume a
    *different* sweep), then one fsync'd line per settled run.  A
    process killed mid-write leaves at most one truncated trailing
    line, which :meth:`begin` skips.
    """

    VERSION = 1

    def __init__(self, path: str | os.PathLike, resume: bool = True) -> None:
        self._journal = JsonlJournal(path, "sweep", self.VERSION,
                                     resume=resume)

    @property
    def path(self) -> Path:
        return self._journal.path

    @staticmethod
    def sweep_id(keys: Sequence[str]) -> str:
        blob = json.dumps(list(keys), separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    @staticmethod
    def _accept(payload: dict) -> bool:
        # A run event whose payload does not decode is as good as torn:
        # truncate the replay there.
        if payload.get("ev") != "run":
            return True
        try:
            result_from_payload(payload["payload"])
        except (KeyError, TypeError, ValueError):
            return False
        return True

    def begin(self, sweep_id: str) -> dict[str, tuple]:
        """Open for appending; returns previously settled ``key ->
        (result, wall_time_s)`` entries when resuming the same sweep."""
        events = self._journal.begin({"id": sweep_id}, accept=self._accept)
        entries: dict[str, tuple] = {}
        for payload in events:
            if payload.get("ev") == "run":
                entries[payload["key"]] = \
                    (result_from_payload(payload["payload"]),
                     payload.get("wall", 0.0))
        return entries

    def record(self, key: str, result: PPAResult | FailedRun,
               wall_time_s: float) -> None:
        """Append one settled run; durable once this returns."""
        self._journal.append({
            "ev": "run", "key": key, "wall": wall_time_s,
            "payload": result_to_payload(result),
        })

    def finish(self) -> None:
        """Close out a completed sweep (the file remains resumable)."""
        if self._journal.open:
            self._journal.append({"ev": "end"})
            self._journal.close()


class SweepRunner:
    """Fans ``run_once`` calls out over a process pool, cache first.

    One runner can serve many sweeps; its :attr:`stats` accumulate
    across calls.  With ``jobs=1`` (the default without ``$REPRO_JOBS``)
    everything runs serially in-process, which keeps library master
    caches warm and behavior identical to the historical loops.  The
    retry policy applies identically on the serial and pool paths, so
    ``--jobs`` never changes what a sweep returns.
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
        #: Path of the crash-safe sweep checkpoint (None = disabled).
        self.checkpoint = Path(checkpoint) if checkpoint is not None else None
        self.resume = resume
        self.stats = SweepStats()
        #: When set, every executed run is traced (worker processes
        #: ship their traces back) and one ``run-NNNN.jsonl`` file per
        #: run lands here, plus ``sweep-NNNN.jsonl`` files holding the
        #: parent-side cache-hit spans; ``repro trace report <dir>``
        #: aggregates them.
        self.trace_dir = Path(trace_dir) if trace_dir is not None else None
        self._trace_seq = 0

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
        """Run every config; records come back in ``configs`` order."""
        configs = list(configs)
        started = time.perf_counter()
        tracing = self.trace_dir is not None
        sweep_tracer = telemetry.Tracer(label="sweep") if tracing \
            else telemetry.NULL_TRACER
        records: list[RunRecord | None] = [None] * len(configs)
        keys: list[str | None] = [None] * len(configs)
        pending = list(range(len(configs)))

        # Flow fault injection must never touch (or be hidden by) real
        # cached results: an active flow plan bypasses the cache
        # entirely.  Cache-point clauses (cache.*/lock.*) don't count —
        # they exist to exercise the store's own recovery paths.
        cache = self.cache if not faults_mod.faults_active() else None
        store = StageStore(cache) if cache is not None else None
        need_keys = (cache is not None or self.checkpoint is not None) \
            and configs
        if need_keys:
            fingerprint = netlist_fingerprint(netlist_factory())
            version = cache.version if cache is not None else None
            for i in pending:
                keys[i] = artifact_key("result", configs[i], fingerprint,
                                       version=version)

        duplicates: list[tuple[int, int]] = []
        if store is not None and configs:
            misses = []
            first_miss: dict[str, int] = {}
            with telemetry.activate(sweep_tracer):
                # Hits are recorded by StageStore.result as zero-cost
                # ``cache_hit`` spans on the active (sweep) tracer.
                # ``refresh`` skips the reads (every point re-runs) but
                # keeps the duplicate detection and the writes below.
                for i in pending:
                    hit = None if self.refresh else store.result(keys[i])
                    if hit is not None:
                        records[i] = RunRecord(configs[i], hit, 0.0,
                                               cache_hit=True)
                    elif keys[i] in first_miss:
                        # Identical point twice in one batch: run it once.
                        duplicates.append((i, first_miss[keys[i]]))
                    else:
                        first_miss[keys[i]] = i
                        misses.append(i)
            pending = misses

        ckpt: SweepCheckpoint | None = None
        if self.checkpoint is not None and configs:
            ckpt = SweepCheckpoint(self.checkpoint, resume=self.resume)
            settled = ckpt.begin(SweepCheckpoint.sweep_id(
                [k for k in keys if k is not None]))
            still_pending = []
            for i in pending:
                entry = settled.get(keys[i])
                if entry is not None:
                    result, wall = entry
                    records[i] = RunRecord(configs[i], result, wall,
                                           resumed=True)
                else:
                    still_pending.append(i)
            pending = still_pending

        def settle(slot: int, outcome: tuple) -> None:
            i = pending[slot]
            result, wall, trace = outcome[:3]
            records[i] = RunRecord(configs[i], result, wall, trace=trace)
            if len(outcome) > 3 and outcome[3]:
                self.stats.absorb_stage_counters(outcome[3])
            if ckpt is not None and keys[i] is not None:
                ckpt.record(keys[i], result, wall)

        if pending:
            ran_in_pool = False
            if self.jobs > 1 and len(pending) > 1:
                ran_in_pool = self._run_pool(
                    netlist_factory, [configs[i] for i in pending],
                    settle, sweep_tracer, trace=tracing, cache=cache)
            if not ran_in_pool:
                for slot in range(len(pending)):
                    settle(slot, self._run_serial(
                        netlist_factory, configs[pending[slot]],
                        sweep_tracer, trace=tracing, cache=cache))
            else:
                self.stats.parallel_runs += len(pending)
            if store is not None:
                for i in pending:
                    store.put_result(keys[i], records[i].result)
        if ckpt is not None:
            ckpt.finish()
        for i, source in duplicates:
            records[i] = RunRecord(configs[i], records[source].result, 0.0,
                                   cache_hit=True)

        for rec in records:
            self.stats.record(rec)
        if tracing:
            self._write_traces(records, sweep_tracer)
        self.stats.elapsed_s += time.perf_counter() - started
        return records

    # -- internals ----------------------------------------------------------
    def _note(self, tracer, event: str, count: int = 1) -> None:
        """Mirror a runner event into the sweep trace counters."""
        tracer.count(f"runner.{event}", count)

    def _settle_transient(self, outcome, config: FlowConfig, attempt: int,
                          tracer) -> tuple:
        """Bookkeeping shared by both paths when a try comes back.

        Returns ``(final_outcome_or_None, retry: bool)`` — final when
        the run settled (success, fatal, or retries exhausted), retry
        when the caller should run it again.
        """
        result = outcome[0]
        if isinstance(result, _TransientFailure):
            if result.cause == "RunTimeout":
                self.stats.timeouts += 1
                self._note(tracer, "timeouts")
            if attempt < self.retry.max_attempts:
                self.stats.retries += 1
                self._note(tracer, "retries")
                return None, True
            failed = _failed_from_transient(config, result, attempt)
            self._note(tracer, "quarantined")
            return (failed,) + tuple(outcome[1:]), False
        if isinstance(result, FailedRun) and result.quarantined:
            self._note(tracer, "quarantined")
        return outcome, False

    def _run_serial(self, netlist_factory, config: FlowConfig, tracer,
                    trace: bool = False,
                    cache: FlowCache | None = None) -> tuple:
        """One run on the serial path, with the full retry policy."""
        attempt = 1
        while True:
            outcome = _timed_run(netlist_factory, config, trace,
                                 self.retry.timeout_s, attempt,
                                 cache=cache)
            final, retry = self._settle_transient(outcome, config, attempt,
                                                  tracer)
            if not retry:
                return final
            time.sleep(self.retry.backoff_s(attempt))
            attempt += 1

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

    def _run_pool(self, netlist_factory, configs, settle, tracer,
                  trace=False, cache: FlowCache | None = None) -> bool:
        """Pool execution with retry, salvage and watchdog.

        Calls ``settle(slot, outcome)`` exactly once per config as runs
        finish (in completion order; the caller re-orders).  Returns
        False when the pool cannot be used at all (unpicklable inputs,
        pool construction failure) and nothing was settled — the caller
        then takes the serial path.
        """
        try:
            pickle.dumps((netlist_factory, configs))
        except Exception:
            self.stats.serial_fallbacks += 1
            return False

        n = len(configs)
        attempts = {slot: 1 for slot in range(n)}
        pending = list(range(n))
        #: Pool restarts tolerated before the remainder goes serial.
        max_restarts = max(3, self.retry.max_attempts)
        restarts = 0
        settled_any = False

        while pending:
            if restarts > max_restarts:
                # The pool keeps dying on this host: stop fighting it
                # and finish the remainder in-process.
                self.stats.serial_fallbacks += 1
                self._note(tracer, "serial_fallbacks")
                for slot in list(pending):
                    settle(slot, self._run_serial(
                        netlist_factory, configs[slot], tracer, trace,
                        cache=cache))
                    pending.remove(slot)
                return True

            workers = min(self.jobs, len(pending))
            try:
                pool = futures.ProcessPoolExecutor(max_workers=workers)
            except (OSError, ImportError):
                self.stats.serial_fallbacks += 1
                if not settled_any:
                    return False  # nothing settled yet: plain serial path
                self._note(tracer, "serial_fallbacks")
                for slot in list(pending):
                    settle(slot, self._run_serial(
                        netlist_factory, configs[slot], tracer, trace,
                        cache=cache))
                    pending.remove(slot)
                return True

            broken = False
            fut_map: dict = {}
            try:
                for slot in pending:
                    fut_map[pool.submit(
                        _timed_run, netlist_factory, configs[slot], trace,
                        self.retry.timeout_s, attempts[slot], 0.0,
                        cache)] = slot
                waiting = set(fut_map)
                watchdog = (None if self.retry.timeout_s is None
                            else self.retry.timeout_s + WATCHDOG_GRACE_S)
                while waiting:
                    done, waiting = futures.wait(
                        waiting, timeout=watchdog,
                        return_when=futures.FIRST_COMPLETED)
                    if not done:
                        # Watchdog: no progress for a whole timeout
                        # budget + grace.  Cancel what never started
                        # (retried on a fresh pool) and quarantine what
                        # is wedged beyond the in-worker alarm's reach.
                        for fut in waiting:
                            slot = fut_map[fut]
                            if fut.cancel():
                                continue  # still queued: just re-run it
                            self.stats.timeouts += 1
                            self._note(tracer, "timeouts")
                            self._note(tracer, "quarantined")
                            settle(slot, (FailedRun(
                                label=configs[slot].label,
                                target_utilization=configs[slot].utilization,
                                reason=("worker wedged past the "
                                        f"{self.retry.timeout_s:g}s timeout "
                                        "and its grace period"),
                                stage="", cause="RunTimeout",
                                attempts=attempts[slot], quarantined=True,
                            ), 0.0, None))
                            settled_any = True
                            pending.remove(slot)
                        pool.shutdown(wait=False, cancel_futures=True)
                        broken = True
                        restarts += 1
                        self.stats.pool_restarts += 1
                        self._note(tracer, "pool_restarts")
                        break
                    for fut in done:
                        slot = fut_map[fut]
                        try:
                            outcome = fut.result()
                        except futures.process.BrokenProcessPool:
                            broken = True
                            break
                        except (OSError, RuntimeError) as exc:
                            # Transport-level failure: treat like a
                            # transient worker failure of this run.
                            outcome = (_TransientFailure(
                                stage="", cause=type(exc).__name__,
                                message=str(exc)), 0.0, None)
                        final, retry = self._settle_transient(
                            outcome, configs[slot], attempts[slot], tracer)
                        if retry:
                            attempts[slot] += 1
                            fresh = pool.submit(
                                _timed_run, netlist_factory, configs[slot],
                                trace, self.retry.timeout_s, attempts[slot],
                                self.retry.backoff_s(attempts[slot] - 1),
                                cache)
                            fut_map[fresh] = slot
                            waiting.add(fresh)
                        else:
                            settle(slot, final)
                            settled_any = True
                            pending.remove(slot)
                    if broken:
                        break
            except futures.process.BrokenProcessPool:
                broken = True
            finally:
                pool.shutdown(wait=not broken, cancel_futures=True)

            if broken and pending:
                # Salvage: completed futures already settled above; the
                # unfinished remainder is re-dispatched to a fresh pool.
                # Each re-dispatch consumes an attempt so a run that
                # keeps killing its worker is eventually quarantined.
                restarts += 1
                self.stats.pool_restarts += 1
                self._note(tracer, "pool_restarts")
                for slot in list(pending):
                    if attempts[slot] >= self.retry.max_attempts:
                        self._note(tracer, "quarantined")
                        settle(slot, (FailedRun(
                            label=configs[slot].label,
                            target_utilization=configs[slot].utilization,
                            reason=(f"worker process died "
                                    f"{attempts[slot]} times "
                                    "(BrokenProcessPool)"),
                            stage="", cause="WorkerDied",
                            attempts=attempts[slot], quarantined=True,
                        ), 0.0, None))
                        settled_any = True
                        pending.remove(slot)
                    else:
                        attempts[slot] += 1
                        self.stats.retries += 1
                        self._note(tracer, "retries")
        return True
