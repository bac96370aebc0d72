"""Command-line interface for the FFET evaluation framework.

Usage (after ``pip install -e .``)::

    python -m repro characterize --arch ffet --liberty ffet.lib
    python -m repro run --arch ffet --utilization 0.76 --backside 0.5
    python -m repro sweep utilization --arch cfet --points 0.5 0.6 0.7
    python -m repro sweep frequency --targets 0.5 1.5 3.0 --jobs 4
    python -m repro doe pin-density --fractions 0.04 0.3 0.5
    python -m repro compare
    python -m repro mc --samples 256 --overlay-sigma 2
    python -m repro cache info
    python -m repro run --trace traces/ && python -m repro trace report traces/

Every experiment subcommand accepts ``--xlen/--nregs`` to size the
RISC-V benchmark core and ``--json``/``--csv`` to save results.
Independent flow runs fan out over ``--jobs`` worker processes
(``$REPRO_JOBS`` sets the default) and completed points are served from
the content-addressed artifact store unless ``--no-cache`` is given; see
docs/performance.md.  ``--trace DIR`` records per-stage telemetry for
every run and ``repro trace report DIR`` prints the stage breakdown;
see docs/observability.md.

Failure handling (docs/robustness.md): failed runs print one
structured line (stage, config, cause) and quarantined failures make
the command exit nonzero unless ``--keep-going``; ``--timeout`` /
``--retries`` tune the retry policy, ``--checkpoint FILE`` makes an
interrupted sweep resumable and ``--inject-faults`` injects
deterministic faults for testing.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

from . import build_library, make_cfet_node, make_ffet_node
from .cells import format_kpi_table, library_kpi_diff, write_liberty
from .core import (FLOW_STAGES, FlowCache, FlowConfig, PPAResult,
                   RetryPolicy, SweepRunner)
from .core import faults as faults_mod
from .core import sweeps
from .core.cache import cache_from_env
from .core.config import with_arch_defaults
from .core.doe import cooptimization_table, pin_density_doe
from .core.errors import FlowError
from .core.io import results_to_csv, results_to_json
from .synth import PORTFOLIO, RiscvConfig, generate_riscv_core


def _add_core_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--design",
                        choices=("riscv",) + tuple(sorted(PORTFOLIO)),
                        default="riscv",
                        help="benchmark design; 'riscv' is the plain core "
                             "sized by --xlen/--nregs, the portfolio names "
                             "(rv16_sram, rv16_cache, rv16_tile, ...) run "
                             "with their own defaults")
    parser.add_argument("--xlen", type=int, default=16,
                        help="RISC-V datapath width (paper scale: 32)")
    parser.add_argument("--nregs", type=int, default=16,
                        help="register count (paper scale: 32)")


def _add_config_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--arch", choices=("ffet", "cfet"), default="ffet")
    parser.add_argument("--front-layers", type=int, default=12)
    parser.add_argument("--back-layers", type=int, default=None,
                        help="default: 12 for ffet, 0 for cfet")
    parser.add_argument("--backside", type=float, default=None,
                        help="backside input-pin fraction (default: 0.5 "
                             "with backside layers, 0 without)")
    parser.add_argument("--utilization", type=float, default=0.70)
    parser.add_argument("--frequency", type=float, default=1.5,
                        help="synthesis target, GHz")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--cts-mode", choices=("single", "dual"),
                        default="single",
                        help="clock tree: frontside-only or partitioned "
                             "across both metal stacks (ffet only)")
    parser.add_argument("--cts-back-fraction", type=float, default=0.5,
                        help="dual CTS: target share of clock wirelength "
                             "on backside metal")


def _add_output_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--json", metavar="FILE", help="write results JSON")
    parser.add_argument("--csv", metavar="FILE", help="write results CSV")


def _at_least_one(text: str) -> int:
    count = int(text)
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {count}")
    return count


def _positive_seconds(text: str) -> float:
    seconds = float(text)
    if not 0 < seconds < math.inf:
        raise argparse.ArgumentTypeError(
            f"must be a positive, finite number, got {text}")
    return seconds


def _add_runner_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", "-j", type=int, default=None,
                        help="parallel flow workers (default: $REPRO_JOBS "
                             "or 1; 0 = one per core)")
    parser.add_argument("--no-cache", action="store_true",
                        help="recompute every run, bypassing the cache")
    parser.add_argument("--refresh", action="store_true",
                        help="re-run every point instead of serving stored "
                             "results, but keep the per-stage artifact store "
                             "warm (replays unchanged flow prefixes)")
    parser.add_argument("--cache-dir", default=None,
                        help="cache directory (default: "
                             "$REPRO_CACHE_DIR or ~/.cache/repro)")
    parser.add_argument("--cache-max-bytes", type=int, default=None,
                        metavar="BYTES",
                        help="byte quota for the cache directory; exceeding "
                             "it evicts least-recently-used entries "
                             "(default: $REPRO_CACHE_MAX_BYTES or unbounded)")
    parser.add_argument("--trace", metavar="DIR", default=None,
                        help="write one per-stage telemetry trace (JSONL) "
                             "per run into DIR; inspect with "
                             "'repro trace report DIR'")
    parser.add_argument("--timeout", type=_positive_seconds, default=None,
                        metavar="SECONDS",
                        help="per-run wall-clock budget, positive; a run "
                             "past it is retried, then quarantined "
                             "(default: $REPRO_TIMEOUT or unlimited)")
    parser.add_argument("--retries", type=_at_least_one, default=None,
                        metavar="N",
                        help="max attempts per run for transient failures, "
                             "at least 1 (default: $REPRO_RETRIES or 3)")
    parser.add_argument("--checkpoint", metavar="FILE", default=None,
                        help="crash-safe run journal (JSONL); rerunning "
                             "with the same file resumes every run it "
                             "holds by result key")
    parser.add_argument("--no-resume", action="store_true",
                        help="truncate an existing checkpoint file and "
                             "recompute every run")
    parser.add_argument("--keep-going", action="store_true",
                        help="exit 0 even when some runs were quarantined "
                             "(the sweep always completes either way)")
    parser.add_argument("--inject-faults", metavar="SPEC", default=None,
                        help="deterministic fault injection, e.g. "
                             "'placement:raise:first,sta:die:rate=0.3'; "
                             "see docs/robustness.md (disables the cache)")


def _cache_from(args) -> FlowCache | None:
    """The experiment commands' store: ``--no-cache`` or
    ``$REPRO_NO_CACHE`` disables it (``repro cache`` opens its
    directory directly)."""
    if args.no_cache:
        return None
    return cache_from_env(args.cache_dir, max_bytes=args.cache_max_bytes)


def _retry_from(args) -> RetryPolicy:
    """``$REPRO_TIMEOUT``/``$REPRO_RETRIES``, overridden by
    ``--timeout``/``--retries``."""
    patch = {}
    if args.timeout is not None:
        patch["timeout_s"] = args.timeout
    if args.retries is not None:
        patch["max_attempts"] = args.retries
    return dataclasses.replace(RetryPolicy.from_env(), **patch)


def _runner_from(args) -> SweepRunner:
    # --inject-faults travels via the environment so pool worker
    # processes see the exact same plan as the parent.
    if args.inject_faults:
        faults_mod.FaultPlan.from_spec(args.inject_faults)  # fail fast
        os.environ[faults_mod.FAULTS_ENV] = args.inject_faults
    return SweepRunner(jobs=args.jobs, cache=_cache_from(args),
                       trace_dir=args.trace, retry=_retry_from(args),
                       checkpoint=args.checkpoint,
                       resume=not args.no_resume, refresh=args.refresh)


def _exit_code(args, runner: SweepRunner) -> int:
    """Sweeps exit nonzero when runs were quarantined, unless
    ``--keep-going`` says partial results are an acceptable outcome."""
    if runner.stats.quarantined and not getattr(args, "keep_going", False):
        return 1
    return 0


def _report_traces(args, runner: SweepRunner) -> None:
    if getattr(args, "trace", None):
        if runner.stats.stage_time_s:
            print(runner.stats.stage_summary())
        print(f"traces written to {runner.trace_dir}")


def _config_from(args) -> FlowConfig:
    fields = dict(
        arch=args.arch,
        front_layers=args.front_layers,
        utilization=args.utilization,
        target_frequency_ghz=args.frequency,
        seed=args.seed,
        cts_mode=getattr(args, "cts_mode", "single"),
        cts_back_fraction=getattr(args, "cts_back_fraction", 0.5),
    )
    if args.back_layers is not None:
        fields["back_layers"] = args.back_layers
    if args.backside is not None:
        fields["backside_pin_fraction"] = args.backside
    return FlowConfig(**with_arch_defaults(fields))


class RiscvFactory:
    """Picklable netlist factory (closures can't cross the process pool)."""

    def __init__(self, xlen: int, nregs: int) -> None:
        self.xlen = xlen
        self.nregs = nregs

    def __call__(self):
        return generate_riscv_core(RiscvConfig(
            xlen=self.xlen, nregs=self.nregs, name=f"rv{self.xlen}"))


class PortfolioFactory:
    """Picklable factory resolving a portfolio design name at call time."""

    def __init__(self, design: str) -> None:
        if design not in PORTFOLIO:
            raise ValueError(f"unknown design {design!r} "
                             f"(one of {sorted(PORTFOLIO)})")
        self.design = design

    def __call__(self):
        return PORTFOLIO[self.design]()


def _factory_from(args):
    design = getattr(args, "design", "riscv")
    if design == "riscv":
        return RiscvFactory(args.xlen, args.nregs)
    return PortfolioFactory(design)


def _emit(args, runs) -> None:
    if getattr(args, "json", None):
        with open(args.json, "w") as handle:
            handle.write(results_to_json(runs))
        print(f"wrote {args.json}")
    if getattr(args, "csv", None):
        with open(args.csv, "w") as handle:
            handle.write(results_to_csv(runs))
        print(f"wrote {args.csv}")


def cmd_characterize(args) -> int:
    ffet = build_library(make_ffet_node())
    cfet = build_library(make_cfet_node())
    print(format_kpi_table(library_kpi_diff(ffet, cfet)))
    if args.liberty:
        library = ffet if args.arch == "ffet" else cfet
        with open(args.liberty, "w") as handle:
            handle.write(write_liberty(library))
        print(f"wrote {args.liberty}")
    return 0


def cmd_run(args) -> int:
    if getattr(args, "stop_after", None):
        return _run_partial(args)
    runner = _runner_from(args)
    run = runner.run_one(_factory_from(args), _config_from(args))
    print(run.summary())
    _report_traces(args, runner)
    _emit(args, [run])
    if run.valid:
        return 0
    return 0 if getattr(args, "keep_going", False) else 1


def _run_partial(args) -> int:
    """``repro run --stop-after STAGE``: a partial stage-graph walk."""
    from .core import StageStore, Tracer
    from .core.flow import run_flow
    config = _config_from(args)
    cache = _cache_from(args)
    store = StageStore(cache) if cache is not None else None
    tracer = Tracer(label=config.label) if args.trace else None
    artifacts = run_flow(_factory_from(args), config,
                         return_artifacts=True, tracer=tracer,
                         store=store, stop_after=args.stop_after)
    for name, how in artifacts.stage_status.items():
        print(f"{name:<14} {'replayed from stage store' if how == 'cached' else 'ran'}")
    if artifacts.result is not None:
        print(artifacts.result.summary())
    if args.trace:
        path = artifacts.trace.write(os.path.join(args.trace, "run-0000.jsonl"))
        print(f"trace written to {path}")
    return 0


def cmd_stages(args) -> int:
    """``repro stages``: dump the flow's stage chain."""
    from .core.flow import FLOW_GRAPH
    rows = [{
        "name": stage.name,
        "config_fields": sorted(stage.config_fields),
        "transitive_fields": sorted(FLOW_GRAPH.transitive_fields(stage.name)),
        "uses_netlist": stage.uses_netlist,
    } for stage in FLOW_GRAPH]
    if getattr(args, "json", False):
        print(json.dumps(rows, indent=2))
        return 0
    print(f"{'stage':<14} config fields (own)")
    for row in rows:
        own = ", ".join(row["config_fields"]) or "-"
        if row["uses_netlist"]:
            own = (own + " + netlist") if own != "-" else "netlist"
        print(f"{row['name']:<14} {own}")
    print("\nA stage's key covers its own fields plus the previous "
          "stage's key (transitive);\nsee docs/architecture.md for the "
          "invalidation rules.")
    return 0


def _print_cts_comparison(points) -> None:
    """Pair up single/dual CTS points and print the deltas."""
    by_key = {}
    for p in points:
        by_key.setdefault((p.utilization, p.front_layers, p.back_layers),
                          {})[p.cts_mode] = p.result
    print(f"{'point':<16} {'mode':<7} {'fmax GHz':>9} {'skew ps':>8} "
          f"{'clk bufs':>8} {'power mW':>9} {'back clk':>9}")
    for (util, front, back), modes in by_key.items():
        label = f"FM{front}BM{back} u{util:.2f}"
        for mode in ("single", "dual"):
            r = modes.get(mode)
            if r is None:
                continue
            if not r.valid:
                print(f"{label:<16} {mode:<7} {'failed':>9}")
                continue
            print(f"{label:<16} {mode:<7} "
                  f"{r.achieved_frequency_ghz:>9.3f} "
                  f"{r.timing.clock_skew_ps:>8.2f} "
                  f"{r.cts_buffers:>8d} "
                  f"{r.power.total_mw:>9.3f} "
                  f"{'yes' if mode == 'dual' else 'no':>9}")


def cmd_sweep(args) -> int:
    factory = _factory_from(args)
    config = _config_from(args)
    runner = _runner_from(args)
    if args.axis == "utilization":
        points = args.points or sweeps.SWEEP_UTILIZATIONS
        runs = sweeps.utilization_sweep(factory, config, points,
                                        runner=runner)
    elif args.axis == "layers":
        splits = [sweeps.parse_split(s)
                  for s in args.splits or sweeps.LAYER_SPLITS]
        runs = [p.result for p in sweeps.layer_split_sweep(
            factory, config, splits, runner=runner)]
    elif args.axis == "cts":
        splits = [sweeps.parse_split(s)
                  for s in args.splits or sweeps.CTS_SPLITS]
        points = sweeps.cts_mode_sweep(
            factory, config, args.points or sweeps.CTS_UTILIZATIONS,
            splits, runner=runner, back_fraction=args.cts_back_fraction)
        _print_cts_comparison(points)
        runs = [p.result for p in points]
    else:
        targets = args.targets or sweeps.FREQUENCY_TARGETS
        runs = sweeps.frequency_sweep(factory, config, targets,
                                      runner=runner)
    for run in runs:
        print(run.summary())
    print(runner.stats.summary())
    _report_traces(args, runner)
    _emit(args, runs)
    return _exit_code(args, runner)


def cmd_doe(args) -> int:
    factory = _factory_from(args)
    runner = _runner_from(args)
    base = FlowConfig(arch="ffet", backside_pin_fraction=0.5,
                      target_frequency_ghz=args.frequency, seed=args.seed)
    if args.kind == "pin-density":
        clouds = pin_density_doe(factory, base, fractions=args.fractions,
                                 utilizations=args.points or
                                 (0.52, 0.64, 0.76),
                                 runner=runner)
        for cloud in sorted(clouds, key=lambda c: -c.merit):
            print(f"{cloud.label}: mean f={cloud.mean_frequency_ghz:.3f} GHz"
                  f" mean P={cloud.mean_power_mw:.3f} mW"
                  f" merit={cloud.merit:.3f}")
        _emit(args, [r for c in clouds for r in c.results])
    else:
        rows = cooptimization_table(factory, base,
                                    fractions=args.fractions,
                                    utilization=args.utilization,
                                    runner=runner)
        for row in rows:
            print(f"FP{1 - row.backside_fraction:g}"
                  f"BP{row.backside_fraction:g} {row.pattern}: "
                  f"freq {row.frequency_diff:+.1%} "
                  f"power {row.power_diff:+.1%}")
    print(runner.stats.summary())
    _report_traces(args, runner)
    return _exit_code(args, runner)


def cmd_compare(args) -> int:
    factory = _factory_from(args)
    runner = _runner_from(args)
    configs = {
        "CFET": FlowConfig(arch="cfet", back_layers=0,
                           backside_pin_fraction=0.0,
                           utilization=args.utilization,
                           target_frequency_ghz=args.frequency),
        "FFET FM12": FlowConfig(arch="ffet", back_layers=0,
                                backside_pin_fraction=0.0,
                                utilization=args.utilization,
                                target_frequency_ghz=args.frequency),
        "FFET dual": FlowConfig(arch="ffet", backside_pin_fraction=0.5,
                                utilization=args.utilization,
                                target_frequency_ghz=args.frequency),
    }
    results = runner.run_many(factory, list(configs.values()))
    runs = dict(zip(configs, results))
    for name, run in runs.items():
        print(run.summary() if isinstance(run, PPAResult)
              else f"{name}: {run.summary()}")
    cfet, ffet = runs["CFET"], runs["FFET FM12"]
    if isinstance(cfet, PPAResult) and isinstance(ffet, PPAResult):
        print(f"\nFFET FM12 vs CFET: area "
              f"{ffet.core_area_um2 / cfet.core_area_um2 - 1:+.1%}, "
              f"frequency {ffet.achieved_frequency_ghz / cfet.achieved_frequency_ghz - 1:+.1%}, "
              f"power {ffet.total_power_mw / cfet.total_power_mw - 1:+.1%}")
    print(runner.stats.summary())
    _report_traces(args, runner)
    _emit(args, list(runs.values()))
    return _exit_code(args, runner)


def cmd_mc(args) -> int:
    from .core import Tracer
    from .variation import (VariationModel, format_signoff, run_monte_carlo,
                            signoff)
    factory = _factory_from(args)
    config = _config_from(args)
    cache = _cache_from(args)
    model = VariationModel.for_arch(config.arch,
                                    overlay_sigma_nm=args.overlay_sigma,
                                    cd_sigma=args.cd_sigma,
                                    rc_sigma=args.rc_sigma)
    tracer = Tracer(label=f"mc {config.label}") if args.trace else None
    mc = run_monte_carlo(factory, config, model=model, samples=args.samples,
                         seed=args.seed, cache=cache, tracer=tracer)
    report = signoff(mc)
    print(format_signoff(report))
    if mc.nominal_cached:
        print("nominal flow served from the cache")
    for failure in mc.failed:
        print(f"QUARANTINED: sample={failure.index} "
              f"cause={failure.cause or '?'} error={failure.reason}")
    if tracer is not None:
        trace = tracer.finish()
        path = trace.write(os.path.join(args.trace, "mc-0000.jsonl"))
        print(f"trace written to {path}")
    if args.json:
        payload = report.to_dict()
        # Per-sample rows make the output a full determinism witness:
        # two runs agree on this file iff they agree on every sample.
        payload["sample_rows"] = [
            {"index": s.index, "seed": s.seed,
             "overlay_shift_nm": s.overlay_shift_nm,
             "cell_derate": s.cell_derate,
             "frequency_ghz": s.achieved_frequency_ghz,
             "wns_ps": s.wns_ps, "power_mw": s.total_power_mw}
            for s in mc.samples
        ]
        payload["failed_rows"] = [
            {"index": f.index, "seed": f.seed, "cause": f.cause}
            for f in mc.failed
        ]
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json}")
    if mc.failed and not getattr(args, "keep_going", False):
        return 1
    return 0


def cmd_cache(args) -> int:
    cache = FlowCache(args.cache_dir,
                      max_bytes=getattr(args, "cache_max_bytes", None))
    if args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} files from {cache.directory}")
    elif args.action == "fsck":
        return _cache_fsck(args, cache)
    elif getattr(args, "json", False):
        print(json.dumps(cache.info(), indent=2, sort_keys=True))
    else:
        info = cache.info()
        print(f"cache directory: {info['directory']}")
        if not info["entries"]:
            print("cached artifact blobs: empty"
                  + ("" if info["exists"] else " (directory not created yet)"))
        else:
            print(f"cached artifact blobs: {info['entries']} "
                  f"({info['total_bytes'] / 1024:.1f} KiB)")
        if info["max_bytes"]:
            print(f"byte quota: {info['max_bytes'] / 1024:.1f} KiB "
                  "(least-recently-used entries evicted past it)")
        if info["live_locks"] or info["stale_locks"]:
            print(f"locks: {info['live_locks']} live, "
                  f"{info['stale_locks']} stale")
        if info["stale_tmp_files"]:
            print(f"stale tmp files: {info['stale_tmp_files']} "
                  "(from writers that died mid-put; "
                  "'repro cache clear' removes them)")
    return 0


def _cache_fsck(args, cache) -> int:
    """``repro cache fsck [--repair] [--json]``.

    Exit 0 when the store is clean (or every defect was repaired),
    1 when defects remain — scriptable like filesystem fsck.
    """
    report = cache.fsck(repair=getattr(args, "repair", False))
    defects = report["defects"]
    unrepaired = [d for d in defects if not d.get("repaired")]
    if getattr(args, "json", False):
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0 if not unrepaired else 1
    print(f"cache directory: {report['directory']}")
    print(f"checked: {report['entries']} entries, "
          f"{report['live_locks']} live locks")
    if not defects:
        print("clean: no defects found")
        return 0
    for d in defects:
        state = "repaired" if d.get("repaired") else "DEFECT"
        print(f"{state}: {d['kind']} {d['path']} ({d['detail']})")
    if unrepaired:
        hint = "" if getattr(args, "repair", False) \
            else "; rerun with --repair to remove them"
        print(f"{len(unrepaired)} defect(s) remain{hint}")
        return 1
    print(f"repaired {report['repaired']} defect(s)")
    return 0


def cmd_trace(args) -> int:
    from .core import telemetry
    as_json = getattr(args, "json", False)
    try:
        traces = telemetry.load_traces(args.path)
    except OSError as exc:
        print(f"cannot read traces from {args.path}: {exc}",
              file=sys.stderr if as_json else sys.stdout)
        return 1
    if not traces:
        print(f"no traces found in {args.path}",
              file=sys.stderr if as_json else sys.stdout)
        return 1
    stage_times = telemetry.aggregate_stage_times(traces)
    runs = [t for t in traces if t.label != "sweep"]
    counters: dict[str, float] = {}
    for trace in traces:
        telemetry.merge_counters(counters, trace.counters)
    if as_json:
        # Schema documented in docs/observability.md.
        print(json.dumps({
            "path": args.path,
            "traces": len(traces),
            "runs": len(runs),
            "total_s": sum(t.total_s for t in traces),
            "stage_time_s": stage_times,
            "counters": counters,
        }, indent=2, sort_keys=True))
        return 0
    if len(runs) == 1 and runs[0].label:
        title = f"stage breakdown: {runs[0].label}"
    else:
        title = f"stage breakdown over {len(runs)} runs"
    print(telemetry.format_stage_table(stage_times, title=title))
    if counters:
        print("counters:")
        for name in sorted(counters):
            print(f"  {name} = {counters[name]:g}")
    return 0


def _serve_env(name: str, fallback):
    raw = os.environ.get(f"REPRO_SERVE_{name}", "").strip()
    if not raw:
        return fallback
    return type(fallback)(raw) if fallback is not None else raw


def cmd_serve(args) -> int:
    import asyncio
    import signal as signal_mod

    from .core.cache import default_cache_dir
    from .service import JobJournal, ReproServer, Scheduler
    from .service.journal import DEFAULT_BASENAME

    cache = _cache_from(args)
    journal = None
    if args.journal != "":
        path = args.journal or _serve_env("JOURNAL", None)
        if path is None:
            base = cache.directory if cache is not None \
                else default_cache_dir()
            path = os.path.join(str(base), DEFAULT_BASENAME)
        journal = JobJournal(path, resume=not args.no_resume)
    scheduler = Scheduler(cache=cache, workers=args.workers,
                          journal=journal, retry=_retry_from(args),
                          max_runs=args.max_runs)
    server = ReproServer(scheduler, host=args.host, port=args.port)

    async def _serve() -> None:
        await server.start()
        print(f"repro serve listening on "
              f"http://{args.host}:{server.port}", flush=True)
        if args.port_file:
            with open(args.port_file, "w") as handle:
                handle.write(f"{server.port}\n")
        loop = asyncio.get_running_loop()
        for sig in (signal_mod.SIGINT, signal_mod.SIGTERM):
            try:
                loop.add_signal_handler(
                    sig, lambda: asyncio.ensure_future(server.stop()))
            except (NotImplementedError, ValueError):
                pass
        await server.wait_stopped()

    asyncio.run(_serve())
    return 0


def cmd_client(args) -> int:
    from .service import ReproClient, ServiceError

    if args.action == "submit" and not args.spec:
        print("error: submit needs --spec FILE (or '-')", file=sys.stderr)
        return 2
    if args.action in ("status", "wait", "cancel") and not args.job_id:
        print(f"error: {args.action} needs a job id", file=sys.stderr)
        return 2
    client = ReproClient(args.server)

    def show(doc) -> None:
        print(json.dumps(doc, indent=2, sort_keys=True))

    try:
        if args.action == "submit":
            if args.spec == "-":
                spec = json.load(sys.stdin)
            else:
                with open(args.spec) as handle:
                    spec = json.load(handle)
            job = client.submit(spec)
            if args.wait:
                job = client.wait(job["id"], timeout_s=args.timeout)
            show(job)
            if args.wait and job.get("state") != "completed":
                return 1
        elif args.action == "status":
            show(client.status(args.job_id))
        elif args.action == "wait":
            job = client.wait(args.job_id, timeout_s=args.timeout)
            show(job)
            if job.get("state") != "completed":
                return 1
        elif args.action == "cancel":
            show(client.cancel(args.job_id))
        elif args.action == "jobs":
            show(client.jobs())
        elif args.action == "health":
            show(client.healthz())
        elif args.action == "stats":
            show(client.stats())
        else:  # shutdown
            show(client.shutdown())
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ConnectionError, OSError, TimeoutError) as exc:
        print(f"error: cannot reach {client.url}: {exc}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"error: spec is not JSON: {exc}", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="FFET dual-sided physical implementation and PPA "
                    "evaluation framework (DATE 2025 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("characterize",
                       help="build libraries, print Table I, dump Liberty")
    p.add_argument("--arch", choices=("ffet", "cfet"), default="ffet")
    p.add_argument("--liberty", metavar="FILE")
    p.set_defaults(func=cmd_characterize)

    p = sub.add_parser("run", help="run one full implementation flow")
    _add_core_args(p)
    _add_config_args(p)
    _add_output_args(p)
    _add_runner_args(p)
    p.add_argument("--stop-after", metavar="STAGE", default=None,
                   choices=FLOW_STAGES,
                   help="walk the stage graph only through STAGE "
                        "(see `repro stages` for names)")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("stages",
                       help="dump the flow's stage graph and config slices")
    p.add_argument("--json", action="store_true",
                   help="print the graph as JSON")
    p.set_defaults(func=cmd_stages)

    p = sub.add_parser("sweep", help="utilization, frequency, "
                                     "routing-layer-split or CTS-mode sweep")
    p.add_argument("axis", choices=("utilization", "frequency", "layers",
                                    "cts"))
    p.add_argument("--points", type=float, nargs="+",
                   help="utilization points")
    p.add_argument("--targets", type=float, nargs="+",
                   help="frequency targets, GHz")
    p.add_argument("--splits", nargs="+", metavar="FRONT:BACK",
                   help="routing-layer splits for the layers axis "
                        "(default: 9:3 8:4 7:5 6:6) or the cts axis "
                        "(default: 12:12 6:6)")
    _add_core_args(p)
    _add_config_args(p)
    _add_output_args(p)
    _add_runner_args(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("doe", help="Fig. 11 / Table III explorations")
    p.add_argument("kind", choices=("pin-density", "coopt"))
    p.add_argument("--fractions", type=float, nargs="+",
                   default=[0.04, 0.3, 0.5])
    p.add_argument("--points", type=float, nargs="+")
    p.add_argument("--utilization", type=float, default=0.70)
    p.add_argument("--frequency", type=float, default=1.5)
    p.add_argument("--seed", type=int, default=0)
    _add_core_args(p)
    _add_output_args(p)
    _add_runner_args(p)
    p.set_defaults(func=cmd_doe)

    p = sub.add_parser("compare", help="CFET vs FFET headline comparison")
    p.add_argument("--utilization", type=float, default=0.70)
    p.add_argument("--frequency", type=float, default=1.5)
    p.add_argument("--seed", type=int, default=0)
    _add_core_args(p)
    _add_output_args(p)
    _add_runner_args(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("mc",
                       help="overlay-aware Monte-Carlo variation study "
                            "with statistical PPA signoff")
    _add_core_args(p)
    _add_config_args(p)
    p.add_argument("--samples", type=_at_least_one, default=64,
                   help="Monte-Carlo sample count, at least 1 (default: 64)")
    p.add_argument("--overlay-sigma", type=float, default=2.0,
                   metavar="NM",
                   help="frontside/backside overlay sigma per axis, nm")
    p.add_argument("--cd-sigma", type=float, default=0.03, metavar="REL",
                   help="CD/gate-length cell-delay sigma (relative)")
    p.add_argument("--rc-sigma", type=float, default=0.04, metavar="REL",
                   help="metal thickness/width wire-RC sigma (relative)")
    p.add_argument("--json", metavar="FILE",
                   help="write the signoff report + per-sample rows as JSON")
    p.add_argument("--no-cache", action="store_true",
                   help="recompute the nominal flow, bypassing the cache")
    p.add_argument("--cache-dir", default=None,
                   help="cache directory (default: "
                        "$REPRO_CACHE_DIR or ~/.cache/repro)")
    p.add_argument("--cache-max-bytes", type=int, default=None,
                   metavar="BYTES",
                   help="byte quota for the cache directory (default: "
                        "$REPRO_CACHE_MAX_BYTES or unbounded)")
    p.add_argument("--trace", metavar="DIR", default=None,
                   help="write the study's telemetry trace (JSONL) into DIR")
    p.add_argument("--keep-going", action="store_true",
                   help="exit 0 even when some samples were quarantined")
    p.set_defaults(func=cmd_mc)

    p = sub.add_parser("cache",
                       help="inspect, audit or clear the flow artifact store")
    p.add_argument("action", choices=("info", "clear", "fsck"))
    p.add_argument("--cache-dir", default=None,
                   help="cache directory (default: $REPRO_CACHE_DIR "
                        "or ~/.cache/repro)")
    p.add_argument("--cache-max-bytes", type=int, default=None,
                   metavar="BYTES",
                   help="byte quota reported by 'info' (default: "
                        "$REPRO_CACHE_MAX_BYTES or unbounded)")
    p.add_argument("--repair", action="store_true",
                   help="with fsck: delete every defective file found "
                        "(corrupt entries/blobs, stale tmp files and locks)")
    p.add_argument("--json", action="store_true",
                   help="print the cache summary / fsck report as JSON "
                        "(see docs/observability.md for the schema)")
    p.set_defaults(func=cmd_cache)

    p = sub.add_parser("trace",
                       help="report on telemetry traces from --trace runs")
    p.add_argument("action", choices=("report",))
    p.add_argument("path",
                   help="a trace .jsonl file or a --trace output directory")
    p.add_argument("--json", action="store_true",
                   help="print the aggregated report as JSON "
                        "(see docs/observability.md for the schema)")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("serve",
                       help="run the async job server (docs/service.md)")
    p.add_argument("--host", default=_serve_env("HOST", "127.0.0.1"),
                   help="bind address (default: $REPRO_SERVE_HOST "
                        "or 127.0.0.1)")
    p.add_argument("--port", type=int, default=_serve_env("PORT", 8642),
                   help="bind port, 0 = ephemeral (default: "
                        "$REPRO_SERVE_PORT or 8642)")
    p.add_argument("--port-file", metavar="FILE", default=None,
                   help="write the bound port here once listening "
                        "(for scripts using --port 0)")
    p.add_argument("--workers", type=int,
                   default=_serve_env("WORKERS", 2),
                   help="flow worker processes (default: "
                        "$REPRO_SERVE_WORKERS or 2)")
    p.add_argument("--journal", metavar="FILE", default=None,
                   help="crash-safe job journal; '' disables it "
                        "(default: $REPRO_SERVE_JOURNAL or "
                        "<cache-dir>/service-journal.jsonl)")
    p.add_argument("--no-resume", action="store_true",
                   help="start with a fresh journal instead of replaying "
                        "jobs from an interrupted server")
    p.add_argument("--no-cache", action="store_true",
                   help="run without the shared cache (disables "
                        "cross-job result and stage dedup)")
    p.add_argument("--cache-dir", default=None,
                   help="cache directory (default: "
                        "$REPRO_CACHE_DIR or ~/.cache/repro)")
    p.add_argument("--cache-max-bytes", type=int, default=None,
                   metavar="BYTES",
                   help="byte quota for the cache directory (default: "
                        "$REPRO_CACHE_MAX_BYTES or unbounded)")
    p.add_argument("--max-runs", type=int,
                   default=_serve_env("MAX_RUNS", 256),
                   help="per-job quota: a spec expanding to more runs is "
                        "rejected (default: $REPRO_SERVE_MAX_RUNS or 256)")
    p.add_argument("--timeout", type=_positive_seconds, default=None,
                   metavar="SECONDS",
                   help="default per-run wall-clock budget, positive "
                        "(default: $REPRO_TIMEOUT or unlimited)")
    p.add_argument("--retries", type=_at_least_one, default=None,
                   metavar="N",
                   help="default max attempts per run, at least 1 "
                        "(default: $REPRO_RETRIES or 3)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("client",
                       help="talk to a running 'repro serve' daemon")
    p.add_argument("action",
                   choices=("submit", "status", "wait", "cancel", "jobs",
                            "health", "stats", "shutdown"))
    p.add_argument("job_id", nargs="?", default=None,
                   help="job id (for status/wait/cancel)")
    p.add_argument("--server", default=None, metavar="URL",
                   help="server URL (default: $REPRO_SERVE_URL or "
                        "http://127.0.0.1:8642)")
    p.add_argument("--spec", metavar="FILE", default=None,
                   help="job spec JSON for submit ('-' reads stdin)")
    p.add_argument("--wait", action="store_true",
                   help="with submit: block until the job settles")
    p.add_argument("--timeout", type=float, default=None,
                   metavar="SECONDS",
                   help="deadline for wait (default: forever)")
    p.set_defaults(func=cmd_client)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FlowError as exc:
        # One structured line (stage, config, cause), not a traceback.
        print(f"error: {exc.one_line()}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
