"""The FFET evaluation framework: flow, configs, sweeps and DoEs.

Every exported name resolves lazily via PEP 562 (module
``__getattr__``).  The package init stays import-free so that leaf
modules like :mod:`repro.core.errors` and :mod:`repro.core.telemetry`
can be imported from anywhere in the package — including ``pnr``,
``lefdef`` and ``extract``, which ``repro.core``'s own heavyweight
modules import in turn — without creating an import cycle.
"""

from importlib import import_module

#: Exported name -> defining submodule, resolved on first access.
_LAZY = {
    "FlowCache": ".cache",
    "cache_from_env": ".cache",
    "code_fingerprint": ".cache",
    "netlist_fingerprint": ".cache",
    "FlowConfig": ".config",
    "DecompositionError": ".errors",
    "FatalError": ".errors",
    "FlowError": ".errors",
    "GuardViolation": ".errors",
    "InjectedFault": ".errors",
    "MergeError": ".errors",
    "RoutingError": ".errors",
    "RunTimeout": ".errors",
    "TransientError": ".errors",
    "FaultPlan": ".faults",
    "FileLock": ".locking",
    "LockManager": ".locking",
    "FLOW_GRAPH": ".flow",
    "FLOW_STAGES": ".flow",
    "FlowArtifacts": ".flow",
    "artifact_key": ".flow",
    "prepare_library": ".flow",
    "run_flow": ".flow",
    "stage_keys": ".flow",
    "Stage": ".stages",
    "StageGraph": ".stages",
    "StageLease": ".stages",
    "StageStore": ".stages",
    "stage_key": ".stages",
    "FlowGuard": ".guard",
    "result_to_dict": ".io",
    "results_to_csv": ".io",
    "results_to_json": ".io",
    "FailedRun": ".ppa",
    "PPAResult": ".ppa",
    "JsonlJournal": ".journal",
    "RetryPolicy": ".runner",
    "RunRecord": ".runner",
    "SweepCheckpoint": ".runner",
    "SweepRunner": ".runner",
    "SweepStats": ".runner",
    "resolve_jobs": ".runner",
    "run_once": ".runner",
    "script_runner": ".runner",
    "NULL_TRACER": ".telemetry",
    "NullTracer": ".telemetry",
    "Trace": ".telemetry",
    "Tracer": ".telemetry",
    "current_tracer": ".telemetry",
    "save_artifacts": ".artifacts",
}

__all__ = sorted(_LAZY)


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(module, __name__), name)
    globals()[name] = value  # cache for subsequent lookups
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
