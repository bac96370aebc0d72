"""Where ``repro serve`` keeps its job journal.

The server journals through the same :class:`~repro.core.journal.JobJournal`
(one class, one event grammar) that ``--checkpoint`` opens for CLI
sweeps: every accepted job, every settled run and every terminal state
change is an fsync'd line, so ``repro serve`` after a SIGKILL
reconstructs the queue — terminal jobs come back as history, settled
runs of interrupted jobs are *not* recomputed, and only the genuinely
unfinished items re-enter the engine.  See :mod:`repro.core.journal`
for the grammar and why the header is keyed by the code fingerprint.
"""

from __future__ import annotations

from ..core.journal import JobJournal, ReplayedJob

#: Default journal filename (inside the cache directory).
DEFAULT_BASENAME = "service-journal.jsonl"

__all__ = ["DEFAULT_BASENAME", "JobJournal", "ReplayedJob"]
