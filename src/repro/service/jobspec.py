"""Job specifications: what clients POST to ``/jobs``.

A job spec is a small JSON document naming a *workload* (one flow run,
a sweep, or a Monte-Carlo study), the *design* to run it on, the
:class:`~repro.core.config.FlowConfig` knobs, and the job's *priority*
and *quota*.  Validation happens entirely here — the scheduler and the
HTTP layer only ever see a fully-expanded :class:`JobSpec` whose run
items are plain ``(label, FlowConfig)`` pairs — so a malformed spec is
a structured 400 response, never a worker-side crash.

Example::

    {
      "kind": "sweep",
      "axis": "layers",
      "splits": ["9:3", "8:4", "7:5"],
      "design": {"type": "riscv", "xlen": 16, "nregs": 16},
      "config": {"arch": "ffet", "utilization": 0.7},
      "priority": 5,
      "quota": {"retries": 2, "timeout_s": 120}
    }

The split between spec and execution follows rad_gen's ``asic_dse``
orchestration: specs are declarative and fully validated up front;
execution machinery (:mod:`repro.service.scheduler`) never parses.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field

from ..core import sweeps
from ..core.config import FlowConfig, with_arch_defaults
from ..core.runner import RetryPolicy, RunItem

#: Spec kinds a server accepts.
KINDS = ("run", "sweep", "mc")

#: Designs a spec can name.  Factories must be picklable (they cross
#: the worker process pool), hence the module-level classes below.
#: ``riscv``/``multiplier`` take size parameters; the portfolio names
#: (:data:`repro.synth.designs.PORTFOLIO`) run with their own defaults.
DESIGN_TYPES = ("riscv", "multiplier", "rv16_sram", "rv16_cache",
                "rv16_tile", "counter", "fir")

#: Priority bounds; higher runs earlier.
PRIORITY_MIN, PRIORITY_MAX = -100, 100


class JobSpecError(ValueError):
    """A spec failed validation; ``str(exc)`` is the client message."""


@dataclass(frozen=True)
class DesignSpec:
    """A picklable netlist factory built from the spec's ``design``."""

    type: str = "riscv"
    xlen: int = 16
    nregs: int = 16
    bits: int = 4

    def __call__(self):
        if self.type == "multiplier":
            from ..synth import generate_multiplier
            return generate_multiplier(self.bits)
        if self.type != "riscv":
            from ..synth.designs import PORTFOLIO
            return PORTFOLIO[self.type]()
        from ..synth import RiscvConfig, generate_riscv_core
        return generate_riscv_core(RiscvConfig(
            xlen=self.xlen, nregs=self.nregs, name=f"rv{self.xlen}"))

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class McParams:
    """Monte-Carlo knobs for ``kind == "mc"`` jobs."""

    samples: int = 32
    seed: int = 0
    overlay_sigma_nm: float = 2.0
    cd_sigma: float = 0.03
    rc_sigma: float = 0.04

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def __call__(self, factory, config: FlowConfig, cache) -> dict:
        """Run the study in a worker: the engine's ``study`` body.

        The study evaluates its samples in that worker's process, so an
        MC job takes one worker, like a flow job.
        """
        from ..variation import VariationModel, run_monte_carlo, signoff
        model = VariationModel.for_arch(
            config.arch, overlay_sigma_nm=self.overlay_sigma_nm,
            cd_sigma=self.cd_sigma, rc_sigma=self.rc_sigma)
        study = run_monte_carlo(factory, config, model=model,
                                samples=self.samples, seed=self.seed or None,
                                cache=cache)
        report = signoff(study).to_dict()
        report["failed_samples"] = len(study.failed)
        report["nominal_cached"] = study.nominal_cached
        return report


@dataclass(frozen=True)
class JobSpec:
    """A validated, fully-expanded job: ready for the scheduler."""

    kind: str
    design: DesignSpec
    items: tuple[RunItem, ...]
    priority: int = 0
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    mc: McParams | None = None
    #: Free-form client annotation, echoed in every status response.
    tag: str = ""
    #: The raw client document, journaled verbatim so a resumed server
    #: re-expands the exact same items.
    raw: dict = field(default_factory=dict, compare=False)

    def fingerprint(self) -> str:
        """Content hash of the raw spec (dedup/debug aid, not identity)."""
        blob = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise JobSpecError(message)


def _parse_design(doc: dict) -> DesignSpec:
    raw = doc.get("design", {})
    _require(isinstance(raw, dict), "field 'design' must be an object")
    dtype = raw.get("type", "riscv")
    _require(dtype in DESIGN_TYPES,
             f"unknown design type {dtype!r} (one of {DESIGN_TYPES})")
    try:
        design = DesignSpec(
            type=dtype,
            xlen=int(raw.get("xlen", 16)),
            nregs=int(raw.get("nregs", 16)),
            bits=int(raw.get("bits", 4)),
        )
    except (TypeError, ValueError) as exc:
        raise JobSpecError(f"invalid design: {exc}")
    _require(2 <= design.bits <= 64, "design bits must be in [2, 64]")
    _require(4 <= design.xlen <= 64, "design xlen must be in [4, 64]")
    _require(4 <= design.nregs <= 64, "design nregs must be in [4, 64]")
    return design


def _parse_config(doc: dict, overrides: dict | None = None) -> FlowConfig:
    raw = dict(doc.get("config", {}))
    _require(isinstance(doc.get("config", {}), dict),
             "field 'config' must be an object")
    if overrides:
        raw.update(overrides)
    known = {f.name for f in dataclasses.fields(FlowConfig)}
    unknown = set(raw) - known
    _require(not unknown,
             f"unknown config fields {sorted(unknown)} "
             f"(known: {sorted(known)})")
    try:
        return FlowConfig(**with_arch_defaults(raw))
    except (TypeError, ValueError) as exc:
        raise JobSpecError(f"invalid config: {exc}")


def _parse_split(text) -> tuple[int, int]:
    try:
        return sweeps.parse_split(text)
    except ValueError as exc:
        raise JobSpecError(str(exc))


def _number_list(doc: dict, key: str, default: list) -> list[float]:
    values = doc.get(key, default)
    _require(isinstance(values, (list, tuple)) and values
             and all(isinstance(v, (int, float))
                     and not isinstance(v, bool) for v in values),
             f"field {key!r} must be a non-empty list of numbers")
    return [float(v) for v in values]


def _expand_sweep(doc: dict) -> list[RunItem]:
    """The items of a sweep spec, over ``repro sweep``'s own grids."""
    axis = doc.get("axis")
    _require(axis in sweeps.SWEEP_AXES,
             f"unknown sweep axis {axis!r} (one of {sweeps.SWEEP_AXES})")
    items: list[RunItem] = []
    if axis == "utilization":
        for util in _number_list(doc, "points", sweeps.SWEEP_UTILIZATIONS):
            cfg = _parse_config(doc, {"utilization": util})
            items.append(RunItem(f"u{util:g}", cfg))
    elif axis == "frequency":
        for ghz in _number_list(doc, "targets", sweeps.FREQUENCY_TARGETS):
            cfg = _parse_config(doc, {"target_frequency_ghz": ghz})
            items.append(RunItem(f"f{ghz:g}", cfg))
    elif axis == "layers":
        splits = doc.get("splits", sweeps.LAYER_SPLITS)
        _require(isinstance(splits, (list, tuple)) and splits,
                 "field 'splits' must be a non-empty list")
        for split in splits:
            front, back = _parse_split(split)
            cfg = _parse_config(doc, {"front_layers": front,
                                      "back_layers": back})
            items.append(RunItem(f"FM{front}BM{back}", cfg))
    else:  # cts
        utils = _number_list(doc, "points", sweeps.CTS_UTILIZATIONS)
        splits = [_parse_split(s)
                  for s in doc.get("splits", sweeps.CTS_SPLITS)]
        for util in utils:
            for front, back in splits:
                for mode in ("single", "dual"):
                    cfg = _parse_config(doc, {
                        "utilization": util, "front_layers": front,
                        "back_layers": back, "cts_mode": mode})
                    items.append(RunItem(
                        f"FM{front}BM{back} u{util:g} cts={mode}", cfg))
    return items


def _parse_quota(doc: dict, default_retry: RetryPolicy) -> RetryPolicy:
    raw = doc.get("quota", {})
    _require(isinstance(raw, dict), "field 'quota' must be an object")
    patch = {}
    retries = raw.get("retries")
    if retries is not None:
        _require(isinstance(retries, int) and 1 <= retries <= 10,
                 "quota retries must be an int in [1, 10]")
        patch["max_attempts"] = retries
    timeout = raw.get("timeout_s")
    if timeout is not None:
        _require(isinstance(timeout, (int, float)) and timeout > 0,
                 "quota timeout_s must be a positive number")
        patch["timeout_s"] = float(timeout)
    return dataclasses.replace(default_retry, **patch) if patch \
        else default_retry


def parse_jobspec(doc: dict, max_runs: int = 256,
                  default_retry: RetryPolicy | None = None) -> JobSpec:
    """Validate one client document into a :class:`JobSpec`.

    ``max_runs`` is the server-side per-job quota: a spec expanding to
    more run items is rejected up front (the client sees exactly why).
    Raises :class:`JobSpecError` with a client-presentable message on
    any problem.
    """
    _require(isinstance(doc, dict), "job spec must be a JSON object")
    kind = doc.get("kind")
    _require(kind in KINDS, f"unknown job kind {kind!r} (one of {KINDS})")
    design = _parse_design(doc)
    priority = doc.get("priority", 0)
    _require(isinstance(priority, int)
             and PRIORITY_MIN <= priority <= PRIORITY_MAX,
             f"priority must be an int in "
             f"[{PRIORITY_MIN}, {PRIORITY_MAX}]")
    tag = doc.get("tag", "")
    _require(isinstance(tag, str) and len(tag) <= 200,
             "tag must be a string of at most 200 characters")
    retry = _parse_quota(doc, default_retry if default_retry is not None
                         else RetryPolicy.from_env())

    mc = None
    if kind == "run":
        items = [RunItem("run", _parse_config(doc))]
    elif kind == "sweep":
        items = _expand_sweep(doc)
    else:  # mc
        raw_mc = doc.get("mc", {})
        _require(isinstance(raw_mc, dict), "field 'mc' must be an object")
        try:
            mc = McParams(
                samples=int(raw_mc.get("samples", 32)),
                seed=int(raw_mc.get("seed", 0)),
                overlay_sigma_nm=float(raw_mc.get("overlay_sigma_nm", 2.0)),
                cd_sigma=float(raw_mc.get("cd_sigma", 0.03)),
                rc_sigma=float(raw_mc.get("rc_sigma", 0.04)),
            )
        except (TypeError, ValueError) as exc:
            raise JobSpecError(f"invalid mc parameters: {exc}")
        _require(1 <= mc.samples <= 4096,
                 "mc samples must be in [1, 4096]")
        items = [RunItem("mc", _parse_config(doc))]

    _require(len(items) <= max_runs,
             f"job expands to {len(items)} runs, over the per-job quota "
             f"of {max_runs} (REPRO_SERVE_MAX_RUNS)")
    return JobSpec(kind=kind, design=design, items=tuple(items),
                   priority=priority, retry=retry, mc=mc, tag=tag,
                   raw=doc)
