"""Deterministic, seeded fault injection for the flow's failure paths.

Recovery code that is never executed is broken code.  This harness lets
tests, CI smoke jobs and manual debugging make any named flow stage
misbehave on demand, deterministically, without touching the flow's
healthy-path results:

* ``raise`` — raise :class:`~repro.core.errors.InjectedFault`
  (transient: exercises the runner's retry/backoff path);
* ``fatal`` — raise :class:`~repro.core.errors.FatalError`
  (exercises immediate quarantine);
* ``hang``  — block inside the stage (exercises the per-run timeout);
* ``die``   — kill the worker process with ``os._exit`` (exercises
  ``BrokenProcessPool`` salvage);
* ``corrupt`` — silently damage the stage's output (exercises the
  flow guard's invariant checks).

Faults are specified via the ``REPRO_FAULTS`` environment variable (so
worker processes inherit them) or the CLI's ``--inject-faults``.  The
grammar is a comma-separated list of clauses::

    stage:mode[:option]...

    placement:raise              # every placement raises (all attempts)
    placement:raise:first        # only the first attempt raises
    routing:hang:duration=120    # routing blocks for 120 s
    def_merge:corrupt:rate=0.5   # half the runs get a damaged DEF
    sta:die:rate=0.3:seed=7      # 30 % of workers exit hard at STA

``stage`` is one of :data:`~repro.core.flow.FLOW_STAGES` or ``*``.
Whether a rate-gated clause fires is a pure hash of (clause seed,
stage, config identity, attempt), so a given sweep always injects the
same faults into the same runs — failures are reproducible, and
retries of rate-gated transient faults can legitimately succeed.

When any *flow* fault plan is active the sweep runner bypasses the
artifact store entirely, so injected failures and corrupted outputs
can never poison real cached results.

Beyond the flow stages, the store's own failure paths are injectable
at the :data:`CACHE_POINTS` (see docs/robustness.md)::

    cache.put:corrupt        # torn write: a truncated entry lands on disk
    cache.evict:corrupt      # evict-race: quota treated as zero, every
                             # unpinned entry evicted under live readers
    lock.acquire:die         # lock-holder death: the process exits hard
                             # right after winning a single-flight lease

Cache-point clauses deliberately do **not** disable the cache (they
exist to exercise it); the rate draw uses the store key as the
identity, so they are just as deterministic as flow faults.  ``*``
never matches a cache point.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import FatalError, InjectedFault

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .config import FlowConfig

#: Environment variable holding the fault spec (inherited by workers).
FAULTS_ENV = "REPRO_FAULTS"

#: Recognized fault modes.
MODES = ("raise", "fatal", "hang", "corrupt", "die")

#: Injectable non-flow fault points inside the artifact store.  These
#: target the cache's own recovery paths, so (unlike flow stages) an
#: active cache-point clause does not bypass the cache.
CACHE_POINTS = ("cache.put", "cache.evict", "lock.acquire")


def is_cache_point(stage: str) -> bool:
    """Whether a clause targets the store rather than a flow stage."""
    return stage.startswith(("cache.", "lock."))

#: Exit code of a worker killed by a ``die`` fault (mimics a hard
#: crash: no exception, no cleanup — the pool just loses the process).
DIE_EXIT_CODE = 86

#: Default block time of a ``hang`` fault, seconds.  Long enough that
#: any sane per-run timeout fires first.
DEFAULT_HANG_S = 3600.0

#: The attempt number of the run currently executing in this process
#: (1-based).  Set by the sweep runner before each (re)try.
_attempt = 1


def set_attempt(attempt: int) -> None:
    """Record the current run attempt (1-based) for ``first`` clauses."""
    global _attempt
    _attempt = max(1, int(attempt))


def current_attempt() -> int:
    return _attempt


@dataclass(frozen=True)
class FaultClause:
    """One parsed ``stage:mode[:option]...`` clause."""

    stage: str
    mode: str
    rate: float = 1.0
    first_attempt_only: bool = False
    duration_s: float = DEFAULT_HANG_S
    seed: int = 0

    def fires(self, stage: str, identity: str, attempt: int) -> bool:
        """Whether this clause injects into the given stage of one run."""
        if self.stage not in ("*", stage):
            return False
        if self.first_attempt_only and attempt > 1:
            return False
        if self.rate >= 1.0:
            return True
        return self._draw(stage, identity, attempt) < self.rate

    def _draw(self, stage: str, identity: str, attempt: int) -> float:
        """A deterministic uniform draw in [0, 1) for this (run, attempt)."""
        blob = f"{self.seed}|{self.mode}|{stage}|{identity}|{attempt}"
        digest = hashlib.sha256(blob.encode()).digest()
        return int.from_bytes(digest[:8], "big") / 2**64


def parse_clause(text: str) -> FaultClause:
    """Parse one ``stage:mode[:option]...`` clause."""
    parts = [p.strip() for p in text.strip().split(":")]
    if len(parts) < 2 or not parts[0] or not parts[1]:
        raise ValueError(f"fault clause needs stage:mode, got {text!r}")
    stage, mode = parts[0], parts[1]
    if mode not in MODES:
        raise ValueError(
            f"unknown fault mode {mode!r} (expected one of {MODES})")
    rate, first, duration, seed = 1.0, False, DEFAULT_HANG_S, 0
    for option in parts[2:]:
        if option == "first":
            first = True
            continue
        key, sep, value = option.partition("=")
        if not sep:
            raise ValueError(f"malformed fault option {option!r} in {text!r}")
        if key == "rate":
            rate = float(value)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"fault rate must be in [0, 1]: {text!r}")
        elif key == "duration":
            duration = float(value)
        elif key == "seed":
            seed = int(value)
        else:
            raise ValueError(f"unknown fault option {key!r} in {text!r}")
    return FaultClause(stage=stage, mode=mode, rate=rate,
                       first_attempt_only=first, duration_s=duration,
                       seed=seed)


@dataclass(frozen=True)
class FaultPlan:
    """Every active fault clause; empty plans are inert."""

    clauses: tuple[FaultClause, ...] = ()

    @classmethod
    def from_spec(cls, spec: str | None) -> "FaultPlan":
        """Parse a comma-separated clause list (empty/None -> inert plan)."""
        if not spec or not spec.strip():
            return cls()
        return cls(tuple(parse_clause(c)
                         for c in spec.split(",") if c.strip()))

    @property
    def active(self) -> bool:
        return bool(self.clauses)

    @property
    def flow_active(self) -> bool:
        """Whether any clause targets a *flow* stage (cache clauses
        never bypass the artifact store)."""
        return any(not is_cache_point(c.stage) for c in self.clauses)

    def clause_for(self, stage: str, config: "FlowConfig",
                   attempt: int | None = None) -> FaultClause | None:
        """The first clause that fires for this stage of this run."""
        if not self.clauses:
            return None
        attempt = attempt if attempt is not None else current_attempt()
        identity = _config_identity(config)
        for clause in self.clauses:
            if clause.fires(stage, identity, attempt):
                return clause
        return None


def _config_identity(config: "FlowConfig") -> str:
    """A stable per-run identity for deterministic fault draws."""
    return (f"{config.label}|u{config.utilization}"
            f"|f{config.target_frequency_ghz}|s{config.seed}")


def plan_from_env() -> FaultPlan:
    """The process-wide plan from ``$REPRO_FAULTS`` (inert if unset)."""
    return FaultPlan.from_spec(os.environ.get(FAULTS_ENV))


def faults_active() -> bool:
    """Whether any *flow* fault clause is active (cache-bypass check).

    Cache-point clauses (``cache.*`` / ``lock.*``) do not count: they
    exist to exercise the store, so the store must stay attached while
    they fire.
    """
    spec = os.environ.get(FAULTS_ENV, "").strip()
    if not spec:
        return False
    try:
        return FaultPlan.from_spec(spec).flow_active
    except ValueError:
        return True  # malformed spec: fail safe, bypass the cache


def cache_clause(point: str, identity: str = "") -> FaultClause | None:
    """The active clause targeting one store fault point, if any.

    Exact-name match only (``*`` never reaches into the store); the
    rate draw keys on the store key so injection is deterministic per
    entry, like flow faults are per run.
    """
    spec = os.environ.get(FAULTS_ENV, "").strip()
    if not spec:
        return None
    try:
        plan = FaultPlan.from_spec(spec)
    except ValueError:
        return None
    for clause in plan.clauses:
        if clause.stage == point and clause.fires(point, identity,
                                                  current_attempt()):
            return clause
    return None


def fire(clause: FaultClause, stage: str) -> bool:
    """Execute a non-``corrupt`` clause inside its stage.

    Returns ``False`` only for ``corrupt`` clauses, which the flow
    applies itself (it owns the stage artifacts); everything else
    raises, blocks or kills the process right here.
    """
    if clause.mode == "raise":
        raise InjectedFault(
            f"injected transient fault at {stage}", stage,
            cause="InjectedFault")
    if clause.mode == "fatal":
        raise FatalError(
            f"injected fatal fault at {stage}", stage, cause="FatalError")
    if clause.mode == "hang":
        # A real hang, interruptible by the worker-side timeout alarm.
        deadline = time.monotonic() + clause.duration_s
        while time.monotonic() < deadline:
            time.sleep(min(0.05, max(0.0, deadline - time.monotonic())))
        raise InjectedFault(
            f"injected hang at {stage} outlived its {clause.duration_s:g}s "
            "duration without a timeout", stage, cause="InjectedFault")
    if clause.mode == "die":
        os._exit(DIE_EXIT_CODE)
    return False
