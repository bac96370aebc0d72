"""Jobs on the one execution engine: the scheduler behind ``repro serve``.

The dispatch loop, the cheapest-first ladder (stored ``result``
artifact, in-flight dedup, execute), the attempt loop, the fault rule
and the journal's run events all belong to
:class:`~repro.core.runner.Engine`, the same engine every CLI sweep
runs on.  :class:`Scheduler` adds only what jobs have: spec expansion
(:mod:`repro.service.jobspec`), job states, cancel, change notification
for event streams, and job replay from the journal after a crash.

Flows always run on the worker pool, never on the event loop the HTTP
front end shares.  Workers build a :class:`~repro.core.stages.StageStore`
on the shared cache, so *partially* overlapping items (two layer-split
sweeps sharing the placement prefix) still single-flight per stage
across concurrent jobs.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from dataclasses import dataclass

from ..core.cache import FlowCache, result_from_payload
from ..core.journal import JobJournal, next_job_number
from ..core.runner import (
    CANCELLED,
    COMPLETED,
    FAILED,
    TERMINAL,
    VIA_CACHE,
    VIA_DEDUP,
    VIA_EXECUTED,
    VIA_RESUMED,
    Engine,
)
from ..core.runner import Job as EngineJob
from ..core.runner import RetryPolicy, RunRecord
from .jobspec import DesignSpec, JobSpec, JobSpecError, parse_jobspec


@dataclass(eq=False)
class Job(EngineJob):
    """One accepted job and everything a status response needs."""

    spec: JobSpec | None = None
    #: Bumped on every observable change; event streams wait on it.
    version: int = 0
    error: str = ""

    @classmethod
    def of(cls, job_id: str, spec: JobSpec, submitted_s: float,
           **kwargs) -> "Job":
        return cls(id=job_id, factory=spec.design, items=spec.items,
                   priority=spec.priority, retry=spec.retry, study=spec.mc,
                   doc=spec.raw, submitted_s=submitted_s, spec=spec,
                   **kwargs)

    def to_dict(self, full: bool = True) -> dict:
        doc = {
            "id": self.id,
            "kind": self.spec.kind,
            "tag": self.spec.tag,
            "priority": self.priority,
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
            doc["runs"] = [self.records[i].to_doc(self.items[i].label)
                           if i in self.records else None
                           for i in range(self.total)]
        return doc


class Scheduler(Engine):
    """The engine plus jobs, ids, cancel and ``/stats``.

    Construction is cheap and loop-free; :meth:`start` must run on the
    event loop before the first :meth:`submit`.
    """

    def __init__(self, cache: FlowCache | None = None, workers: int = 2,
                 journal: JobJournal | None = None,
                 retry: RetryPolicy | None = None,
                 max_runs: int = 256) -> None:
        super().__init__(cache=cache, workers=workers, retry=retry,
                         journal=journal)
        self.max_runs = max_runs
        self.started_s = time.time()
        self._seq = itertools.count(1)

    # -- lifecycle -----------------------------------------------------------
    async def start(self) -> None:
        """Bind to the running loop, build the pool, replay the journal."""
        self.changed = asyncio.Condition()
        await super().start()
        if self.journal is not None:
            self._replay()

    async def stop(self) -> None:
        """Drain nothing — cancel the dispatcher and the pool."""
        await super().stop()
        if self.journal is not None:
            self.journal.close()

    def _replay(self) -> None:
        """Rebuild jobs from the journal; requeue the unfinished."""
        for replayed in self.journal.replay():
            try:
                spec = parse_jobspec(replayed.spec_doc,
                                     max_runs=self.max_runs,
                                     default_retry=self.retry)
            except JobSpecError as exc:
                # The code-keyed header makes this near-impossible (the
                # same code re-expands the same items), but never crash
                # a resume over one bad line.
                self.jobs[replayed.id] = Job.of(
                    replayed.id, JobSpec(kind="run", design=DesignSpec(),
                                         items=(), raw=replayed.spec_doc),
                    replayed.submitted_s, state=FAILED,
                    error=f"spec no longer parses: {exc}")
                continue
            job = Job.of(replayed.id, spec, replayed.submitted_s)
            for index, (_key, payload) in replayed.payloads.items():
                if 0 <= index < job.total:
                    doc = replayed.records[index]
                    job.records[index] = RunRecord(
                        job.items[index].config, result_from_payload(payload),
                        doc.get("wall_s", 0.0),
                        via=doc.get("via", VIA_EXECUTED),
                        attempts=doc.get("attempts", 1))
            self._count(f"runner.{VIA_RESUMED}", job.done)
            self.jobs[job.id] = job
            if replayed.state in TERMINAL:
                job.state = replayed.state
            elif job.done >= job.total:
                # Crash landed between the last run line and the state
                # line: finish the transition now (journaled again).
                self._finish(job, COMPLETED if job.ok else FAILED)
            else:
                self._count("service.jobs.resumed")
                self._enqueue(job)
        self._seq = itertools.count(next_job_number(self.jobs))

    # -- submission / query (event-loop only) --------------------------------
    def submit(self, doc: dict) -> Job:
        """Validate, journal and enqueue one client document."""
        if self._stopping:
            raise JobSpecError("server is shutting down")
        spec = parse_jobspec(doc, max_runs=self.max_runs,
                             default_retry=self.retry)
        job = Job.of(f"j{next(self._seq):04d}", spec, time.time())
        self._admit(job)
        self._count("service.jobs.submitted")
        return job

    def cancel(self, job_id: str) -> Job:
        """Cancel a job; already-running items finish but stop counting."""
        job = self.jobs[job_id]
        if job.state not in TERMINAL:
            job.state = CANCELLED
            if self.journal is not None:
                self.journal.job_state(job.id, CANCELLED)
            self._count("service.jobs.cancelled")
            self._changed(job)
        return job

    def stats(self) -> dict:
        states: dict[str, int] = {}
        for job in self.jobs.values():
            states[job.state] = states.get(job.state, 0) + 1
        return {
            "workers": self.workers,
            "pool": "process" if self._pool is not None else "in-process",
            "idle": self._idle,
            "queued_items": len(self._heap),
            "inflight_keys": len(self._inflight),
            "runs_settled": sum(
                self.counters.get(f"runner.{via}", 0)
                for via in (VIA_EXECUTED, VIA_CACHE, VIA_DEDUP,
                            VIA_RESUMED)),
            "jobs": states,
            "uptime_s": round(time.time() - self.started_s, 3),
            "counters": {k: self.counters[k]
                         for k in sorted(self.counters)},
        }

    # -- engine hooks --------------------------------------------------------
    def _finish(self, job: Job, state: str) -> None:
        super()._finish(job, state)
        self._count(f"service.jobs.{state}")

    def _changed(self, job: Job) -> None:
        job.version += 1
        self._spawn(self._notify())

    async def _notify(self) -> None:
        async with self.changed:
            self.changed.notify_all()
