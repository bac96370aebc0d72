"""The crash-safe run journal behind ``--checkpoint`` and ``repro serve``.

Two layers.  :class:`JsonlJournal` is the durability primitive: a JSONL
file whose first line binds it to one *identity* (a small JSON dict
plus a format version), followed by fsync'd event lines.  Its
guarantees:

* **durable once appended** — :meth:`JsonlJournal.append` returns only
  after the line is flushed and fsync'd, so a settled event survives a
  ``SIGKILL`` immediately after;
* **torn tails are harmless** — a process killed mid-write leaves at
  most one truncated trailing line, which :meth:`begin` detects and
  drops (together with anything after it);
* **identity-bound resume** — :meth:`begin` replays the intact events
  only when the header matches the expected kind, version and identity
  fields; anything else (an older format, a foreign file) starts the
  journal fresh rather than resuming the wrong work.

:class:`JobJournal` is the one event grammar on top of it, written by
the execution engine (:mod:`repro.core.runner`) for CLI sweeps
(``--checkpoint FILE`` / ``$REPRO_CHECKPOINT``) and for ``repro serve
--journal`` alike::

    {"ev": "journal", "code": "<code fingerprint>", "version": 2}
    {"ev": "job",   "id": "j0001", "spec": {...}, "t": 1700000000.0}
    {"ev": "run",   "job": "j0001", "index": 3, "key": "<result key>",
                    "payload": {...}, "record": {...}}
    {"ev": "state", "job": "j0001", "state": "completed"}

The header is keyed by the code fingerprint because results are: a
journal written by different code must not replay.  A ``run`` event
carries the run's result key and its round-trippable
:func:`~repro.core.cache.result_to_payload`, so a reader can rebuild
the exact result object; the ``record`` is the presentation dict
``repro serve`` shows.  The server replays jobs (their settled items
are not recomputed); a CLI sweep resumes any run whose result key it
finds, and that key covers every config field but ``tag`` plus the
netlist and code fingerprints, so a file can never resume a different
computation.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from .cache import code_fingerprint, result_from_payload


class JsonlJournal:
    """One append-only JSONL event log bound to an identity header.

    ``kind`` names the header event (``"journal"``) and
    ``version`` is the caller's format version; both must match for
    :meth:`begin` to resume an existing file.
    """

    def __init__(self, path: str | os.PathLike, kind: str, version: int,
                 resume: bool = True) -> None:
        self.path = Path(path)
        self.kind = kind
        self.version = version
        self.resume = resume
        self._handle = None

    # -- lifecycle -----------------------------------------------------------
    def _header_matches(self, payload: dict, identity: dict) -> bool:
        if payload.get("ev") != self.kind \
                or payload.get("version") != self.version:
            return False
        return all(payload.get(k) == v for k, v in identity.items())

    def begin(self, identity: dict,
              accept: Callable[[dict], bool] | None = None) -> list[dict]:
        """Open for appending; returns the replayed intact events.

        When resuming a file whose header matches ``identity``, every
        intact event line after the header is parsed and returned (the
        header itself is not).  A torn trailing line, or the first
        event ``accept`` rejects, truncates the replay there.  On any
        header mismatch the file is started fresh and nothing is
        replayed.
        """
        events: list[dict] = []
        lines_kept = 0
        raw_lines: list[str] = []
        if self.resume and self.path.is_file():
            try:
                raw_lines = self.path.read_text().splitlines()
            except OSError:
                raw_lines = []
            header_ok = False
            for line in raw_lines:
                try:
                    payload = json.loads(line)
                except ValueError:
                    break  # truncated tail from a mid-write crash
                if not lines_kept:
                    header_ok = self._header_matches(payload, identity)
                    if not header_ok:
                        break
                else:
                    if accept is not None and not accept(payload):
                        break
                    events.append(payload)
                lines_kept += 1
            if not header_ok:
                events = []
                lines_kept = 0
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if lines_kept:
            # Resuming: keep the intact prefix, drop any truncated tail.
            intact = "\n".join(raw_lines[:lines_kept])
            self._handle = open(self.path, "w")
            self._handle.write(intact + "\n")
        else:
            self._handle = open(self.path, "w")
            self._handle.write(json.dumps(
                {"ev": self.kind, **identity,
                 "version": self.version}) + "\n")
        self._flush()
        return events

    def append(self, event: dict) -> None:
        """Append one event line; durable once this returns."""
        if self._handle is None:
            return
        self._handle.write(json.dumps(event) + "\n")
        self._flush()

    def close(self) -> None:
        """Close the handle; the file remains resumable."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def _flush(self) -> None:
        self._handle.flush()
        os.fsync(self._handle.fileno())


def next_job_number(job_ids) -> int:
    """The first ``jNNNN`` number past every id in ``job_ids``."""
    used = [int(jid[1:]) for jid in job_ids
            if jid.startswith("j") and jid[1:].isdigit()]
    return max(used, default=0) + 1


@dataclass
class ReplayedJob:
    """One job reconstructed from the journal."""

    id: str
    spec_doc: dict
    #: Settled run records by item index (journaled presentation dicts).
    records: dict[int, dict] = field(default_factory=dict)
    #: ``index -> (result key, result payload)`` of each settled run.
    payloads: dict[int, tuple[str, dict]] = field(default_factory=dict)
    #: Terminal state from a ``state`` event, or "" if still open.
    state: str = ""
    submitted_s: float = 0.0


class JobJournal:
    """Append-only job log with :meth:`replay` for resume."""

    VERSION = 2

    def __init__(self, path: str | os.PathLike, resume: bool = True) -> None:
        self._journal = JsonlJournal(path, "journal", self.VERSION,
                                     resume=resume)
        self._begun = False

    @property
    def path(self) -> Path:
        return self._journal.path

    @staticmethod
    def identity() -> dict:
        """The header identity: the code fingerprint results are keyed by."""
        return {"code": code_fingerprint()}

    @staticmethod
    def _accept(payload: dict) -> bool:
        # A malformed event is as good as torn: truncate the replay there.
        ev = payload.get("ev")
        if ev == "job":
            return isinstance(payload.get("id"), str) \
                and isinstance(payload.get("spec"), dict)
        if ev == "run":
            if not (isinstance(payload.get("job"), str)
                    and isinstance(payload.get("index"), int)
                    and isinstance(payload.get("record"), dict)):
                return False
            if "payload" in payload:
                try:
                    result_from_payload(payload["payload"])
                except (KeyError, TypeError, ValueError):
                    return False
            return True
        if ev == "state":
            return isinstance(payload.get("job"), str) \
                and isinstance(payload.get("state"), str)
        return True

    def replay(self) -> list[ReplayedJob]:
        """Open the journal; returns the jobs it held, in submit order.

        Events naming a job id with no ``job`` event are dropped.
        """
        events = self._journal.begin(self.identity(), accept=self._accept)
        self._begun = True
        jobs: dict[str, ReplayedJob] = {}
        for payload in events:
            ev = payload.get("ev")
            if ev == "job":
                jid = payload["id"]
                jobs[jid] = ReplayedJob(
                    id=jid, spec_doc=payload["spec"],
                    submitted_s=float(payload.get("t", 0.0)))
                continue
            job = jobs.get(payload.get("job"))
            if job is None:
                continue
            if ev == "run":
                index = payload["index"]
                job.records[index] = payload["record"]
                if "payload" in payload:
                    job.payloads[index] = (payload.get("key", ""),
                                           payload["payload"])
            elif ev == "state":
                job.state = payload["state"]
        return list(jobs.values())

    # -- append API (all fsync'd; durable once they return) -----------------
    def job_submitted(self, job_id: str, spec_doc: dict,
                      submitted_s: float) -> None:
        self._append({"ev": "job", "id": job_id, "spec": spec_doc,
                      "t": submitted_s})

    def run_settled(self, job_id: str, index: int, record: dict,
                    key: str | None = None,
                    payload: dict | None = None) -> None:
        event = {"ev": "run", "job": job_id, "index": index}
        if payload is not None:
            event.update(key=key, payload=payload)
        event["record"] = record
        self._append(event)

    def job_state(self, job_id: str, state: str) -> None:
        self._append({"ev": "state", "job": job_id, "state": state})

    def _append(self, event: dict) -> None:
        if not self._begun:
            self.replay()
        self._journal.append(event)

    def close(self) -> None:
        self._journal.close()
