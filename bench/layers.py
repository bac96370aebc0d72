"""Per-layer metrics of the traced pass: timing wrappers and span arithmetic.

The traced pass measures each layer from outside the program.  It
uses the program's own telemetry hooks (``run_flow(tracer=...)``,
``SweepRunner(trace_dir=...)`` and ``run_monte_carlo(tracer=...)``)
and, while a traced op runs, :func:`installed` replaces the names
callers look up with wrappers that open a ``bench.*`` span on
:func:`~repro.core.telemetry.current_tracer`.  Pool workers fork after
the wrappers are installed, so their spans come back inside the worker
traces the runner ships home.

:func:`collect` reduces one op's traces to raw sums, which add up over
ops; :func:`per_layer` turns those sums into the per-op metrics that
BENCHMARK.json lists under ``per_layer``.  A span's self time is its
duration minus its direct children's durations: one tracer is single
threaded, so siblings never overlap.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager

from repro.core import telemetry
from repro.core.flow import FLOW_STAGES

#: Counters that repeat exactly for a given ``--seed``/``--seconds``;
#: ``compare.py`` requires them to be equal between two sets.
EXACT = frozenset({
    "synth.sizing.iterations", "synth.sizing.delay_evals",
    "pnr.place.sweeps", "pnr.route.rrr_iterations",
    "pnr.route.overflow_edges", "extract.nodes", "sta.delay_evals",
    "guard.checks", "stages.hits", "stages.misses",
    "cache.hits", "cache.misses",
})

_DELAY_EVALS = "kernel.sta.delay_evals"


def _span(name: str):
    """Wrapper factory: run the wrapped callable inside a ``name`` span."""
    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with telemetry.current_tracer().span(name):
                return fn(*args, **kwargs)
        return wrapper
    return make


def _sizing_sta(fn):
    """Sizing's wireload STA pass: a span plus the delay evals it made.

    ``kernel.sta.delay_evals`` sums sizing's passes with signoff STA;
    the delta across each pass is what separates the two.
    """
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tr = telemetry.current_tracer()
        if not tr.enabled:
            return fn(*args, **kwargs)
        before = tr.counters.get(_DELAY_EVALS, 0)
        with tr.span("bench.sizing.sta"):
            report = fn(*args, **kwargs)
        tr.count("bench.sizing.iterations")
        tr.count("bench.sizing.delay_evals",
                 tr.counters.get(_DELAY_EVALS, 0) - before)
        return report
    return wrapper


def _targets():
    """(owner, attribute, wrapper factory) for every wrapped name."""
    import repro.synth.sizing as sizing
    from repro.core import cache, flow, guard, runner, stages
    from repro.variation import engine

    yield sizing, "analyze_timing", _sizing_sta
    yield sizing, "estimate_parasitics", _span("bench.sizing.parasitics")
    yield sizing, "estimate_loads", _span("bench.sizing.loads")
    yield stages.StageStore, "fetch_or_lease", _span("bench.stages.fetch")
    yield stages.StageStore, "put", _span("bench.stages.put")
    yield flow, "netlist_fingerprint", _span("bench.stages.key")
    yield cache.FlowCache, "get", _span("bench.cache.get")
    yield cache.FlowCache, "put", _span("bench.cache.put")
    yield runner, "netlist_fingerprint", _span("bench.cache.key")
    yield engine, "netlist_fingerprint", _span("bench.cache.key")
    for check in ("check_placement", "check_decomposition",
                  "check_merged_def", "check_result"):
        yield guard.FlowGuard, check, _span("bench.guard.check")
    yield engine, "nominal_bundle", _span("bench.variation.nominal")
    yield engine, "run_samples", _span("bench.variation.samples")


@contextmanager
def installed():
    """Install every wrapper for the ``with`` body, then restore."""
    saved = []
    try:
        for owner, attr, make in _targets():
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, make(original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def collect(traces, wall_s: float) -> dict[str, float]:
    """Raw sums over one op's traces; they add across ops.

    Keys: ``span.<name>`` (any depth), ``stage.<name>`` and
    ``self.<name>`` (top-level flow stages), ``replay`` (stages served
    from the store), ``top`` (all top-level span time), ``counter.*``,
    ``gauge.*`` and ``sta.propagate`` (STA kernel time inside signoff).
    """
    out: dict[str, float] = {"wall": wall_s}

    def add(key: str, value: float) -> None:
        out[key] = out.get(key, 0.0) + value

    for trace in traces:
        names = {s.index: s.name for s in trace.spans}
        child_time: dict[int, float] = {}
        replayed: set[int] = set()
        root: dict[int, int] = {}
        for s in trace.spans:  # in index order: parents come first
            root[s.index] = s.index if s.parent is None else root[s.parent]
            if s.parent is not None:
                child_time[s.parent] = child_time.get(s.parent, 0.0) \
                    + s.duration_s
                if s.name == "cache_hit":
                    replayed.add(s.parent)
        for s in trace.spans:
            add(f"span.{s.name}", s.duration_s)
            if s.parent is None:
                add("top", s.duration_s)
                if s.name in FLOW_STAGES:
                    add(f"stage.{s.name}", s.duration_s)
                    add(f"self.{s.name}",
                        s.duration_s - child_time.get(s.index, 0.0))
                    if s.index in replayed:
                        add("replay", s.duration_s)
            if s.name == "kernel.sta.propagate" \
                    and names[root[s.index]] == "sta":
                add("sta.propagate", s.duration_s)
        for name, value in trace.counters.items():
            add(f"counter.{name}", value)
        for name, value in trace.gauges.items():
            add(f"gauge.{name}", value)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(t: dict[str, float], ops: int) -> dict[str, float]:
    """Per-op layer metrics from summed :func:`collect` output.

    ``t`` may also carry the runner, store and variation numbers a
    workload measures outside the traces (``runner.*``,
    ``stages.bytes``, ``variation.payload*``).  Times and counts are
    per op; ratios are taken over the totals.
    """
    def get(key: str) -> float:
        return t.get(key, 0.0)

    def gauges(suffix: str) -> float:
        return sum(v for k, v in t.items()
                   if k.startswith("gauge.route.") and k.endswith(suffix))

    stage_hits = get("counter.stage_cache.hits")
    stage_misses = get("counter.stage_cache.misses")
    cache_hits = get("counter.cache.hits")
    cache_misses = get("counter.cache.misses")
    sizing_evals = get("counter.bench.sizing.delay_evals")
    totals = {
        "cells.library_s": get("stage.library"),
        "synth.netlist_s": get("span.bench.synth.netlist"),
        "synth.sizing_s": get("stage.sizing"),
        "synth.sizing.sta_s": get("span.bench.sizing.sta"),
        "synth.sizing.parasitics_s": get("span.bench.sizing.parasitics"),
        "synth.sizing.loads_s": get("span.bench.sizing.loads"),
        "synth.sizing.self_s": get("self.sizing"),
        "synth.sizing.iterations": get("counter.bench.sizing.iterations"),
        "synth.sizing.delay_evals": sizing_evals,
        "pnr.floorplan_s": get("stage.floorplan"),
        "pnr.powerplan_s": get("stage.powerplan"),
        "pnr.placement_s": get("stage.placement"),
        "pnr.place.field_s": get("span.kernel.place.field"),
        "pnr.place.sweeps": get("counter.kernel.place.sweeps"),
        "pnr.cts_s": get("stage.cts"),
        "pnr.legalization_s": get("stage.legalization"),
        "pnr.routing_s": get("stage.routing"),
        "pnr.route.grids_s": get("span.grids"),
        "pnr.route.decompose_s": get("span.decompose"),
        "pnr.route.route_s": get("span.route.front") + get("span.route.back"),
        "pnr.route.search_s": get("span.kernel.route.search"),
        "pnr.route.rrr_iterations": gauges(".rrr_iterations"),
        "pnr.route.overflow_edges": gauges(".overflow_edges"),
        "lefdef.def_merge_s": get("stage.def_merge"),
        "lefdef.def_export_s": (get("span.def_export.front")
                                + get("span.def_export.back")),
        "extract.extraction_s": get("stage.extraction"),
        "extract.elmore_s": get("span.kernel.extract.elmore"),
        "extract.nodes": get("counter.kernel.extract.nodes"),
        "sta.signoff_s": get("stage.sta"),
        "sta.propagate_s": get("sta.propagate"),
        "sta.delay_evals": get(f"counter.{_DELAY_EVALS}") - sizing_evals,
        "power.power_s": get("stage.power"),
        "guard.check_s": get("span.bench.guard.check"),
        "guard.checks": get("counter.guard.checks"),
        "stages.hits": stage_hits,
        "stages.misses": stage_misses,
        "stages.fetch_s": get("span.bench.stages.fetch"),
        "stages.put_s": get("span.bench.stages.put"),
        "stages.key_s": get("span.bench.stages.key"),
        "stages.replay_s": get("replay"),
        "stages.singleflight_waits":
            get("counter.stage_cache.singleflight.wait"),
        "stages.bytes": get("stages.bytes"),
        "cache.hits": cache_hits,
        "cache.misses": cache_misses,
        "cache.get_s": get("span.bench.cache.get"),
        "cache.put_s": get("span.bench.cache.put"),
        "cache.key_s": get("span.bench.cache.key"),
        "runner.elapsed_s": get("runner.elapsed_s"),
        "runner.flow_s": get("runner.flow_s"),
        "runner.overhead_s": get("runner.overhead_s"),
        "runner.parallel_runs": get("runner.parallel_runs"),
        "runner.retries": get("runner.retries"),
        "runner.pool_restarts": get("runner.pool_restarts"),
        "runner.serial_fallbacks": get("runner.serial_fallbacks"),
        "runner.failed": get("runner.failed"),
        "variation.nominal_s": get("span.bench.variation.nominal"),
        "variation.nominal_hits": get("counter.mc.nominal_cache_hits"),
        "variation.samples_s": get("span.bench.variation.samples"),
        "variation.payload_bytes": get("variation.payload_bytes"),
        "variation.payload_shipped_bytes":
            get("variation.payload_shipped_bytes"),
        "variation.failed_samples": get("counter.mc.failed"),
    }
    metrics = {name: value / ops for name, value in totals.items()}
    metrics.update({
        "stages.hit_ratio": _ratio(stage_hits, stage_hits + stage_misses),
        "cache.hit_ratio": _ratio(cache_hits, cache_hits + cache_misses),
        "runner.busy_ratio": _ratio(get("runner.flow_s"),
                                    get("runner.capacity_s")),
        "variation.sample_cost_s": _ratio(get("span.bench.variation.samples"),
                                          get("counter.mc.samples")),
        "trace.coverage": _ratio(get("top"), get("wall")),
    })
    return metrics


def runner_numbers(runner) -> dict[str, float]:
    """A :class:`~repro.core.runner.SweepRunner`'s stats as summable sums."""
    stats = runner.stats
    return {
        "runner.elapsed_s": stats.elapsed_s,
        "runner.flow_s": stats.run_time_s,
        "runner.capacity_s": stats.elapsed_s * runner.jobs,
        "runner.overhead_s": stats.elapsed_s - stats.run_time_s / runner.jobs,
        "runner.parallel_runs": stats.parallel_runs,
        "runner.retries": stats.retries,
        "runner.pool_restarts": stats.pool_restarts,
        "runner.serial_fallbacks": stats.serial_fallbacks,
        "runner.failed": stats.failed,
    }
