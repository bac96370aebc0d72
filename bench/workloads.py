"""The benchmark's four workloads.

Every workload is a closed loop with one client: the next op starts
when the previous one returns.  A workload builds its inputs from the
seed, sets up once, then runs ops; no pool has more than two workers.
An op returns an :class:`Outcome` whose payloads are the program's
results as JSON-safe data, so the digests of two ways to compute the
same thing can be compared.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pickle
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

from repro.core import FlowCache, FlowConfig, SweepRunner, Tracer, run_flow
from repro.core import telemetry
from repro.core.cache import result_to_payload
from repro.core.sweeps import layer_split_sweep
from repro.synth import (
    RiscvConfig,
    generate_riscv_core,
    generate_rv16_cache,
    generate_rv16_sram,
    generate_rv16_tile,
)
from repro.variation import nominal_bundle, run_monte_carlo

import layers

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "headline_ppa.json"
#: Pool size of every parallel op (the reference host has two cores).
JOBS = 2

_BUILDERS = {
    "rv16": lambda: generate_riscv_core(
        RiscvConfig(xlen=16, nregs=16, name="rv16")),
    "rv16_sram": generate_rv16_sram,
    "rv8": lambda: generate_riscv_core(
        RiscvConfig(xlen=8, nregs=8, name="rv8")),
    "rv8_sram": lambda: generate_rv16_sram(
        xlen=8, nregs=8, words=16, name="rv8_sram"),
    "rv8_cache": lambda: generate_rv16_cache(
        xlen=8, nregs=8, words=16, cache_words=8, name="rv8_cache"),
    "rv8_tile": lambda: generate_rv16_tile(
        xlen=8, nregs=8, words=16, name="rv8_tile"),
}


class Design:
    """Picklable netlist factory for one named design.

    Each call is a ``bench.synth.netlist`` span on the current tracer,
    a no-op outside the traced pass.
    """

    def __init__(self, name: str) -> None:
        self.name = name

    def __call__(self):
        with telemetry.current_tracer().span("bench.synth.netlist"):
            return _BUILDERS[self.name]()


def digest(payloads) -> str:
    """A short content hash of JSON-safe payloads."""
    blob = json.dumps(payloads, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def op_seed(seed: int, k: int) -> int:
    """The flow seed of op ``k``: distinct across ops and across seeds."""
    return 1000 * seed + 1 + k


def _flow_payload(design: Design, config: FlowConfig,
                  tracer: Tracer | None = None) -> dict:
    """One ``run_flow``; a raised failure becomes an error payload."""
    try:
        return result_to_payload(run_flow(design, config, tracer=tracer))
    except Exception as exc:  # the benchmark counts it and carries on
        return {"kind": "error", "cause": type(exc).__name__,
                "reason": str(exc)}


def _failures(payloads) -> int:
    return sum(1 for p in payloads if p.get("kind") != "ppa")


def _blob_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.glob("blobs/stage-*/*/*")
               if p.is_file())


@dataclass
class Outcome:
    """What one op produced."""

    payloads: list
    #: Flow runs (or MC samples) the op attempted.
    items: int
    #: Items that failed or disagree with their expected value.
    failed: int
    #: The op's telemetry (traced ops only).
    traces: list = field(default_factory=list)
    #: Layer numbers measured outside the traces (traced ops only).
    extra: dict = field(default_factory=dict)

    @property
    def digest(self) -> str:
        return digest(self.payloads)


class Workload:
    """Base: inputs from the seed, one set-up, then ops."""

    name = ""
    #: Op wall time on the reference host; sizes the op count from
    #: ``--seconds`` so that a given seed always does the same work.
    op_s = 1.0

    def __init__(self, seed: int, smoke: bool, work_dir: Path) -> None:
        self.seed = seed
        self.smoke = smoke
        self.work_dir = work_dir
        #: Correctness problems found by the ops or :meth:`check`.
        self.problems: list[str] = []

    def scratch(self) -> Path:
        return Path(tempfile.mkdtemp(dir=self.work_dir))

    def setup(self) -> str:
        """Set up; returns the digest of everything set-up computed."""
        raise NotImplementedError

    def inputs(self, count: int) -> list:
        raise NotImplementedError

    def part(self, inp) -> str:
        """The kind of op ``inp`` is; op statistics are taken per kind."""
        return self.name

    def run(self, inp, traced: bool = False) -> Outcome:
        raise NotImplementedError

    def check(self) -> list[str]:
        """Correctness checks after the timed loop; returns problems."""
        return self.problems

    def trace_constants(self) -> dict:
        """Per-op layer numbers that need no timing (traced pass only)."""
        return {}


class ColdFlow(Workload):
    """Portfolio flows at the default split, no store, no cache."""

    name = "cold_flow"
    op_s = 0.6

    def __init__(self, *args) -> None:
        super().__init__(*args)
        # rv8-sized, so a run holds enough flows of each design for a
        # per-design median to shrug off a few seconds of contention.
        self.designs = [Design("rv8" + suffix)
                        for suffix in ("", "_sram", "_cache", "_tile")]

    def setup(self) -> str:
        # Warm-up at the seed's own config; at seed 0 this is the
        # pinned golden case.
        self.warmup = _flow_payload(Design("rv16_sram"),
                                    FlowConfig(seed=self.seed))
        return digest(self.warmup)

    def inputs(self, count: int) -> list:
        # Whole rounds over the four designs; each round has its own
        # seed, so no memo can answer a repeated input.
        rounds = -(-count // len(self.designs))
        return [(design, FlowConfig(seed=op_seed(self.seed, r)))
                for r in range(rounds) for design in self.designs]

    def part(self, inp) -> str:
        return inp[0].name

    def run(self, inp, traced: bool = False) -> Outcome:
        design, config = inp
        tracer = Tracer(label=design.name) if traced else None
        payload = _flow_payload(design, config, tracer)
        out = Outcome([payload], 1, _failures([payload]))
        if tracer is not None:
            out.traces = [tracer.finish()]
        return out

    def check(self) -> list[str]:
        problems = list(self.problems)
        if self.warmup.get("kind") != "ppa":
            problems.append(f"rv16_sram warm-up failed: {self.warmup}")
        elif self.seed == 0:
            try:
                golden = json.loads(GOLDEN.read_text())["ffet_dual_rv16_sram"]
            except (OSError, ValueError, KeyError) as exc:
                problems.append(f"golden fixture unreadable: {exc}")
            else:
                if self.warmup != golden:
                    problems.append("rv16_sram warm-up differs from "
                                    "golden ffet_dual_rv16_sram")
        return problems


class LayerDoe(Workload):
    """The Fig. 12/13 layer-count sweep through the stage store."""

    name = "layer_doe"
    op_s = 1.3

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.design = Design("rv8")
        # FM3BM3 is the congested point, where the maze router runs.
        # Tighter splits are left out: there the rip-up-and-reroute
        # effort swings several-fold from one placement seed to the
        # next, so a run's median would measure the seeds drawn.
        self.splits = ((3, 3), (12, 12)) if self.smoke else \
            ((3, 3), (4, 4), (5, 5), (6, 6), (8, 8), (12, 12))
        self.first: tuple[FlowConfig, dict] | None = None

    def setup(self) -> str:
        warmup = self.run(FlowConfig(seed=self.seed))
        self.first = None  # the cross-path check is on a timed op
        return warmup.digest

    def inputs(self, count: int) -> list:
        return [FlowConfig(seed=op_seed(self.seed, k)) for k in range(count)]

    def run(self, config: FlowConfig, traced: bool = False) -> Outcome:
        cache_dir = self.scratch()
        trace_dir = cache_dir / "trace" if traced else None
        try:
            runner = SweepRunner(jobs=JOBS, cache=FlowCache(cache_dir),
                                 trace_dir=trace_dir)
            points = layer_split_sweep(self.design, config, self.splits,
                                       runner=runner)
            payloads = [result_to_payload(p.result) for p in points]
            out = Outcome(payloads, len(payloads), _failures(payloads))
            if traced:
                out.traces = telemetry.load_traces(trace_dir)
                out.extra = layers.runner_numbers(runner)
                out.extra["stages.bytes"] = _blob_bytes(cache_dir)
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        if self.first is None:
            self.first = (config, payloads[self.splits.index((12, 12))])
        return out

    def check(self) -> list[str]:
        problems = list(self.problems)
        if self.first is not None:
            # Cross-path: the pooled, store-replayed FM12BM12 point must
            # equal a plain cold run of the same config.
            config, swept = self.first
            plain = _flow_payload(self.design,
                                  config.with_(front_layers=12,
                                               back_layers=12))
            if plain != swept:
                problems.append(f"layer_doe FM12BM12 point at seed "
                                f"{config.seed} differs from a cold run")
        return problems


class WarmRerun(Workload):
    """Re-issue a seeded DoE: every point is a result-cache read."""

    name = "warm_rerun"
    op_s = 0.015

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.designs = [Design("rv8")] if self.smoke else \
            [Design("rv8"), Design("rv8_sram")]
        utils = (0.7,) if self.smoke else (0.5, 0.6, 0.7)
        self.configs = [FlowConfig(seed=self.seed, utilization=u,
                                   front_layers=n, back_layers=n)
                        for u in utils for n in (12, 6)]

    def setup(self) -> str:
        self.cache = FlowCache(self.scratch())
        runner = SweepRunner(jobs=JOBS, cache=self.cache)
        self.seeded = [result_to_payload(r) for d in self.designs
                       for r in runner.run_many(d, self.configs)]
        return digest(self.seeded)

    def inputs(self, count: int) -> list:
        return [None] * count

    def run(self, inp, traced: bool = False) -> Outcome:
        trace_dir = self.scratch() if traced else None
        try:
            runner = SweepRunner(jobs=1, cache=self.cache,
                                 trace_dir=trace_dir)
            payloads = [result_to_payload(r) for d in self.designs
                        for r in runner.run_many(d, self.configs)]
            out = Outcome(payloads, len(payloads), _failures(payloads))
            if traced:
                out.traces = telemetry.load_traces(trace_dir)
                out.extra = layers.runner_numbers(runner)
        finally:
            if trace_dir is not None:
                shutil.rmtree(trace_dir, ignore_errors=True)
        if payloads != self.seeded:
            out.failed = out.items
            if not self.problems:
                self.problems.append("warm_rerun results differ from the "
                                     "seeded DoE")
        return out


class McStudy(Workload):
    """Overlay Monte-Carlo studies on a cached nominal flow."""

    name = "mc_study"
    op_s = 1.0

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.design = Design("rv8" if self.smoke else "rv16")
        self.config = FlowConfig(seed=self.seed)
        # Small studies: about half of each op is the engine's fixed
        # cost per study (nominal load, pool start, payload shipping).
        self.samples = 8 if self.smoke else 16
        self.first = None

    def setup(self) -> str:
        self.cache = FlowCache(self.scratch())
        self.nominal = result_to_payload(
            nominal_bundle(self.design, self.config, self.cache).result)
        return digest(self.nominal)

    def inputs(self, count: int) -> list:
        return [1000 * self.seed + k for k in range(count)]

    def _study(self, mc_seed: int, samples: int, jobs: int, tracer=None):
        return run_monte_carlo(self.design, self.config, samples=samples,
                               seed=mc_seed, jobs=jobs, cache=self.cache,
                               tracer=tracer)

    def run(self, mc_seed: int, traced: bool = False) -> Outcome:
        tracer = Tracer(label="mc") if traced else None
        study = self._study(mc_seed, self.samples, JOBS, tracer)
        samples = [dataclasses.asdict(s) for s in study.samples]
        payloads = [result_to_payload(study.nominal)] + samples + \
            [dataclasses.asdict(f) for f in study.failed]
        failed = len(study.failed)
        if payloads[0] != self.nominal:
            failed = self.samples
            problem = "mc_study nominal differs from set-up's"
            if problem not in self.problems:
                self.problems.append(problem)
        out = Outcome(payloads, self.samples, failed)
        if tracer is not None:
            out.traces = [tracer.finish()]
        if self.first is None:
            self.first = (mc_seed, samples[:4])
        return out

    def check(self) -> list[str]:
        problems = list(self.problems)
        if self.first is not None:
            # Pool-vs-serial parity: per-sample seeds depend only on
            # (root seed, index), so a serial rerun of the first
            # samples must match the pooled study bit for bit.
            mc_seed, pooled = self.first
            serial = self._study(mc_seed, len(pooled), 1)
            if [dataclasses.asdict(s) for s in serial.samples] != pooled:
                problems.append(f"mc_study seed {mc_seed}: serial samples "
                                "differ from pooled ones")
        return problems

    def trace_constants(self) -> dict:
        bundle = nominal_bundle(self.design, self.config, self.cache)
        payload = len(pickle.dumps((bundle.netlist, bundle.library,
                                    bundle.extraction, self.config)))
        # The engine ships the payload once per chunk, at most
        # 4 x jobs contiguous chunks.
        chunks = min(4 * JOBS, self.samples)
        return {"variation.payload_bytes": payload,
                "variation.payload_shipped_bytes": payload * chunks}


WORKLOADS = {w.name: w for w in (ColdFlow, LayerDoe, WarmRerun, McStudy)}
