"""Structured flow errors: the failure taxonomy of the fault-tolerance layer.

Every failure a flow run can produce is classified along one axis that
the sweep runner acts on — is re-running the same configuration likely
to succeed?

* :class:`TransientError` — environmental failures (a worker process
  died, the OS refused a resource, a run exceeded its wall-clock
  budget).  The runner retries these with exponential backoff before
  quarantining the run.
* :class:`FatalError` — deterministic failures (an unplaceable
  utilization, a routing target that cannot be reached, an invariant
  the flow guard caught).  Retrying would reproduce them bit for bit,
  so the runner quarantines immediately.

Both carry the *stage* that failed (one of
:data:`~repro.core.flow.FLOW_STAGES`), the *config label* of the run,
and a stringified *cause*, so a quarantined
:class:`~repro.core.ppa.FailedRun` and the CLI's one-line failure
message can always say where and why without a traceback.

This module is intentionally dependency-free so every subsystem
(``pnr``, ``lefdef``, ``extract``) can import it at module scope
without creating an import cycle with ``repro.core``.
"""

from __future__ import annotations

__all__ = [
    "DecompositionError",
    "FatalError",
    "FlowError",
    "GuardViolation",
    "InjectedFault",
    "MergeError",
    "RoutingError",
    "RunTimeout",
    "TransientError",
    "is_transient",
    "wrap_stage_error",
]


class FlowError(RuntimeError):
    """A structured flow failure: what broke, where, and for which run.

    Subclasses set :attr:`transient` to steer the runner's retry
    policy.  All constructor arguments are positional-friendly strings
    so instances pickle cleanly across the process pool
    (:meth:`__reduce__`).
    """

    #: Whether re-running the same configuration may succeed.
    transient = False

    def __init__(self, message: str = "", stage: str = "",
                 config_label: str = "", cause: str = "") -> None:
        super().__init__(message)
        self.stage = stage
        self.config_label = config_label
        self.cause = cause

    def __reduce__(self):
        return (type(self), (str(self), self.stage, self.config_label,
                             self.cause))

    def one_line(self) -> str:
        """The CLI's structured single-line rendering (stage, config, cause)."""
        parts = [f"stage={self.stage or '?'}"]
        if self.config_label:
            parts.append(f"config={self.config_label!r}")
        parts.append(f"cause={self.cause or type(self).__name__}")
        parts.append(f"error={self}")
        return " ".join(parts)


class TransientError(FlowError):
    """An environmental failure; retrying the run may succeed."""

    transient = True


class FatalError(FlowError):
    """A deterministic failure; retrying would reproduce it exactly."""

    transient = False


class RunTimeout(TransientError):
    """A run exceeded its wall-clock budget (hung stage, overload)."""


class RoutingError(FatalError):
    """The maze router could not complete a net within its grid."""


class MergeError(FatalError, ValueError):
    """The front/back DEFs disagree and cannot be merged.

    Also a :class:`ValueError` for backward compatibility with callers
    that predate the structured hierarchy.
    """


class DecompositionError(FatalError, ValueError):
    """Algorithm 1 could not assign a net to a routable side."""


class GuardViolation(FatalError):
    """A post-stage invariant check failed (see ``repro.core.guard``)."""


class InjectedFault(TransientError):
    """A deliberate failure from the fault-injection harness.

    Transient by default so injected faults exercise the retry path;
    the ``fatal`` fault mode raises :class:`FatalError` directly.
    """


#: Exception types treated as transient even when raised outside the
#: structured hierarchy (worker death, resource pressure).
TRANSIENT_NATIVE = (OSError, MemoryError, ConnectionError)


def is_transient(exc: BaseException) -> bool:
    """Whether the runner should retry after this exception."""
    if isinstance(exc, FlowError):
        return exc.transient
    return isinstance(exc, TRANSIENT_NATIVE)


def wrap_stage_error(exc: BaseException, stage: str,
                     config_label: str = "") -> FlowError:
    """Attach stage/config context to ``exc``, preserving transience.

    A :class:`FlowError` is annotated in place (missing fields only);
    anything else is wrapped in the matching subtype with the original
    exception recorded as the stringified cause.
    """
    if isinstance(exc, FlowError):
        if not exc.stage:
            exc.stage = stage
        if not exc.config_label:
            exc.config_label = config_label
        if not exc.cause:
            exc.cause = type(exc).__name__
        return exc
    kind = TransientError if is_transient(exc) else FatalError
    wrapped = kind(str(exc) or type(exc).__name__, stage, config_label,
                   type(exc).__name__)
    wrapped.__cause__ = exc
    return wrapped
