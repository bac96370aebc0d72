"""The full implementation + PPA evaluation flow (the paper's Fig. 7).

Stages: library preparation (input-pin redistribution) -> synthesis
sizing -> floorplan -> powerplan (BSPDN + Power Tap Cells) -> placement
-> CTS -> dual-sided routing (Algorithm 1) -> two DEFs -> DEF merge ->
dual-sided RC extraction -> STA + power -> :class:`PPAResult`.

The pipeline is expressed as a declarative stage chain
(:data:`FLOW_GRAPH`, built on :mod:`repro.core.stages`): every stage
declares the config fields it reads, and :func:`run_flow` walks the
stages in order.  With a :class:`~repro.core.stages.StageStore`
attached, stages whose content-addressed key is already stored are
*replayed* from their artifact instead of re-executed — so a
layer-split sweep places once and routes N times, because
``front_layers``/``back_layers`` first enter the key chain at the
``routing`` stage.  Every stage's artifact,
executed or replayed, is installed by the stage's ``restore``, which
runs its guard checks and emits its result gauges; so a replayed stage
keeps every contract of an executed one, inside the same top-level
span (with a zero-cost ``cache_hit`` marker).  See
docs/architecture.md for the graph, slices and invalidation rules.
"""

from __future__ import annotations

import dataclasses
import hashlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

from ..cells import Library, build_library, pin_density_label, redistribute_input_pins
from ..extract import congestion_derates, extract_design
from ..lefdef import DefDesign, def_from_routing, merge_defs
from ..macros import attach_macros
from ..netlist import Netlist
from ..pnr import (
    FloorplanSpec,
    GlobalRouter,
    PlacementError,
    achieved_utilization,
    assign_layers,
    bind_power_layers,
    build_grid,
    decompose_nets,
    legalize,
    pin_count_map,
    place,
    plan_floor,
    plan_power_layout,
    refine_placement,
    synthesize_clock_tree,
)
from ..pnr.cts import emit_cts_gauges
from ..power import analyze_power
from ..sta import analyze_timing
from ..synth import size_for_target
from ..tech import Side
from . import faults as faults_mod
from . import stages as stages_mod
from . import telemetry
from .cache import netlist_fingerprint
from .config import FlowConfig
from .errors import FatalError, wrap_stage_error
from .guard import FlowGuard
from .ppa import PPAResult
from .stages import Stage, StageGraph, StageStore

@dataclass
class FlowArtifacts:
    """Everything a run produced, for inspection and DEF export.

    A partial walk (``run_flow(..., stop_after=...)``) leaves the
    fields of un-walked stages ``None`` and ``result`` unset unless the
    walk reached the final stage.
    """

    library: Library | None = None
    netlist: Netlist | None = None
    die: object = None
    powerplan: object = None
    placement: object = None
    cts_report: object = None
    routing_results: dict | None = None
    defs: dict[Side, DefDesign] | None = None
    merged_def: DefDesign | None = None
    extraction: object = None
    result: PPAResult | None = None
    #: Telemetry of this run (empty when tracing was off).
    trace: telemetry.Trace = field(default_factory=telemetry.Trace)
    #: Per-stage outcome of the walk: ``"ran"`` (executed) or
    #: ``"cached"`` (replayed from the stage store), in stage order.
    stage_status: dict[str, str] = field(default_factory=dict)


def prepare_library(config: FlowConfig) -> Library:
    """Build + pin-redistribute the library for one configuration.

    Characterization does not depend on the routing-layer split, so the
    ``library`` stage's store entry (its masters) is shared across
    layer sweeps; there is no longer any in-process master cache.
    """
    tech = config.make_tech()
    library = build_library(tech)
    if config.arch == "ffet" and config.backside_pin_fraction > 0:
        library = redistribute_input_pins(
            library, config.backside_pin_fraction, seed=config.seed
        )
    return library


#: Stages whose output the fault-injection ``corrupt`` mode can damage
#: (each paired with the flow-guard check that must catch it).
CORRUPTIBLE_STAGES = frozenset({"placement", "routing", "def_merge", "power"})


def _corrupt_decomposition(decomposition) -> None:
    """Silently drop one sink from the first non-empty side-net."""
    for key, sinks in decomposition.side_sinks.items():
        if sinks:
            sinks.pop()
            return


def _corrupt_def(design: DefDesign) -> None:
    """Silently duplicate one route segment of a DEF."""
    for segments in design.nets.values():
        if segments:
            segments.append(segments[0])
            return


@contextmanager
def _stage(tr, name: str, config: FlowConfig, plan: "faults_mod.FaultPlan"):
    """One top-level flow stage: a span, error context, fault point.

    Any exception escaping the stage body is annotated (or wrapped)
    with the stage name and config label so quarantine records and CLI
    messages can say exactly where the flow failed.  Active non-corrupt
    fault clauses fire at the end of the stage body, inside its span.
    """
    with tr.span(name):
        try:
            yield
        except (KeyboardInterrupt, SystemExit):
            raise
        except BaseException as exc:
            wrapped = wrap_stage_error(exc, name, config.label)
            if wrapped is exc:
                raise
            raise wrapped from exc
        clause = plan.clause_for(name, config) if plan.active else None
        if clause is not None:
            if clause.mode != "corrupt":
                faults_mod.fire(clause, name)
            elif name not in CORRUPTIBLE_STAGES:
                raise FatalError(
                    f"fault injection cannot corrupt stage {name!r} "
                    f"(supported: {sorted(CORRUPTIBLE_STAGES)})",
                    name, config.label, cause="FatalError")


def _corrupting(plan: "faults_mod.FaultPlan", stage: str,
                config: FlowConfig) -> bool:
    """Whether an active ``corrupt`` clause targets this stage."""
    if not plan.active:
        return False
    clause = plan.clause_for(stage, config)
    return clause is not None and clause.mode == "corrupt"


class _FlowState:
    """Mutable state threaded through one graph walk."""

    def __init__(self, config: FlowConfig, tr, plan,
                 netlist_factory) -> None:
        self.config = config
        self.tr = tr
        self.guard = FlowGuard()
        self.plan = plan
        self.netlist_factory = netlist_factory
        #: Netlist instance already built for fingerprinting (reused by
        #: the netlist stage so the factory runs once per walk).
        self.base_netlist: Netlist | None = None
        self.library: Library | None = None
        self.tech = None
        self.netlist: Netlist | None = None
        self.die = None
        self.powerplan = None
        self.util: float | None = None
        self.placement = None
        self.cts_report = None
        self.routing_results: dict | None = None
        self.decomposition = None
        self.defs: dict | None = None
        self.merged = None
        self.extraction = None
        self.timing = None
        self.achieved_ghz: float | None = None
        self.power = None


# -- stage bodies -----------------------------------------------------------
# Each stage has an ``execute`` (the real work: it reads the walk state
# and returns the picklable artifact) and a ``restore`` (the one writer
# of the walk state: it installs an artifact, freshly executed or
# loaded from the store, runs the stage's guard checks and emits its
# result gauges).

def _exec_library(s: _FlowState) -> dict:
    return {"masters": prepare_library(s.config).masters}


def _restore_library(s: _FlowState, art: dict) -> None:
    s.library = Library(tech=s.config.make_tech(),
                        masters=dict(art["masters"]))
    s.tech = s.library.tech


def _exec_netlist(s: _FlowState) -> dict:
    netlist = (s.base_netlist if s.base_netlist is not None
               else s.netlist_factory())
    # Hard macros the design declares are compiled into the library
    # before binding (pin directions come from the macro masters).
    attach_macros(netlist, s.library)
    netlist.bind(s.library)
    return {"netlist": netlist}


def _restore_netlist(s: _FlowState, art: dict) -> None:
    s.netlist = art["netlist"]
    # The library artifact is captured at the library stage — before
    # any macros exist — so a replayed netlist re-attaches its macros.
    attach_macros(s.netlist, s.library)
    s.tr.gauge("netlist.instances", len(s.netlist.instances))
    s.tr.gauge("netlist.nets", len(s.netlist.nets))


def _exec_sizing(s: _FlowState) -> dict:
    # Synthesis-style timing optimization against the target period.
    size_for_target(
        s.netlist, s.library, s.config.target_period_ps,
        clock=s.config.clock,
        max_iterations=s.config.sizing_iterations,
        max_fanout=s.config.max_fanout,
    )
    return {"netlist": s.netlist}


def _restore_sizing(s: _FlowState, art: dict) -> None:
    s.netlist = art["netlist"]


def _exec_floorplan(s: _FlowState) -> dict:
    return {"die": plan_floor(s.netlist, s.library,
                              FloorplanSpec(s.config.utilization,
                                            s.config.aspect_ratio,
                                            s.config.macro_halo_cpp))}


def _restore_floorplan(s: _FlowState, art: dict) -> None:
    s.die = art["die"]
    if s.die.macros:
        s.tr.gauge("floorplan.macros", len(s.die.macros))


def _exec_powerplan(s: _FlowState) -> dict:
    # The stripe/tap layout is layer-split-invariant and is what gets
    # stored; the layer binding is recomputed on every walk so the
    # artifact can be shared across routing-layer configurations.
    return {"layout": plan_power_layout(s.tech, s.die,
                                        s.config.power_stripe_pitch_cpp),
            "util": achieved_utilization(s.netlist, s.library, s.die)}


def _restore_powerplan(s: _FlowState, art: dict) -> None:
    s.powerplan = bind_power_layers(art["layout"], s.tech)
    s.util = art["util"]
    if s.util > s.powerplan.max_legal_utilization:
        raise PlacementError(
            f"utilization {s.util:.2f} exceeds the Power-Tap-Cell limit "
            f"{s.powerplan.max_legal_utilization:.2f}"
        )


def _exec_placement(s: _FlowState) -> dict:
    placement = place(s.netlist, s.library, s.die, s.powerplan,
                      seed=s.config.seed)
    if _corrupting(s.plan, "placement", s.config) and placement.locations:
        del placement.locations[next(iter(placement.locations))]
    return {"placement": placement}


def _restore_placement(s: _FlowState, art: dict) -> None:
    s.placement = art["placement"]
    s.tr.gauge("placement.cells", len(s.placement.locations))
    s.tr.gauge("placement.io_pads", len(s.placement.io_pins))
    s.guard.check_placement(s.netlist, s.die, s.placement)


def _exec_cts(s: _FlowState) -> dict:
    report = synthesize_clock_tree(
        s.netlist, s.library, s.placement, clock_net=s.config.clock,
        mode=s.config.cts_mode, back_fraction=s.config.cts_back_fraction)
    # CTS rewires the clock net and moves buffers: snapshot both the
    # netlist and the placement it mutated, in one blob so shared
    # references stay consistent on restore.
    return {"netlist": s.netlist, "placement": s.placement,
            "cts_report": report}


def _restore_cts(s: _FlowState, art: dict) -> None:
    s.netlist = art["netlist"]
    s.placement = art["placement"]
    s.cts_report = art["cts_report"]
    emit_cts_gauges(s.tr, s.cts_report)


def _exec_legalization(s: _FlowState) -> dict:
    placement = legalize(s.placement, s.netlist, s.library, s.powerplan)
    if s.config.refine_placement:
        with s.tr.span("refine"):
            refine_placement(s.netlist, s.library, placement, s.powerplan,
                             iterations=s.config.refine_iterations,
                             seed=s.config.seed)
    return {"placement": placement}


def _restore_legalization(s: _FlowState, art: dict) -> None:
    s.placement = art["placement"]
    s.guard.check_placement(s.netlist, s.die, s.placement, legal=True)


def _exec_routing(s: _FlowState) -> dict:
    config, tr, netlist, library = s.config, s.tr, s.netlist, s.library
    placement, die, powerplan, tech = s.placement, s.die, s.powerplan, s.tech
    # Per-side pin density maps and routing grids.
    sides = [Side.FRONT] + ([Side.BACK]
                            if tech.uses_backside_signals else [])
    grids = {}
    with tr.span("grids"):
        for side in sides:
            pin_xy = []
            for inst_name, inst in netlist.instances.items():
                master = library[inst.master]
                p = placement.locations[inst_name]
                offsets = getattr(master, "pin_offsets", None)
                for pin in master.pins.values():
                    if pin.on_side(side):
                        if offsets:
                            dx, dy = offsets.get(pin.name, (0.0, 0.0))
                            pin_xy.append((p.x_nm + dx, p.y_nm + dy))
                        else:
                            pin_xy.append((p.x_nm, p.y_nm))
            counts = pin_count_map(pin_xy, die, config.gcell_tracks,
                                   tech.rules.track_pitch_nm)
            grids[side] = build_grid(tech, die, side, powerplan,
                                     pin_counts=counts,
                                     gcell_tracks=config.gcell_tracks)

    # Algorithm 1: decompose and route each side independently.  Dual-
    # sided CTS hands routing a side assignment for clock tree nets:
    # nets marked "back" are forced onto the backside grid wholesale.
    side_overrides = {
        net: Side.BACK
        for net, assigned in getattr(s.cts_report, "net_sides", {}).items()
        if assigned == "back"
    }
    with tr.span("decompose"):
        decomposition = decompose_nets(
            netlist, library, placement, grids,
            allow_bridging=config.allow_bridging,
            side_overrides=side_overrides)
        if _corrupting(s.plan, "routing", config):
            _corrupt_decomposition(decomposition)
    routing_results = {}
    for side in sides:
        with tr.span(f"route.{side.value}"):
            router = GlobalRouter(grids[side],
                                  rrr_iterations=config.rrr_iterations)
            routing_results[side] = router.route_all(
                decomposition.specs[side])
    art = {"routing_results": routing_results,
           "decomposition": decomposition}
    if decomposition.bridges:
        # Bridging (Algorithm 1 fallback) inserted buffers into the
        # netlist and the placement, so both snapshots ride along;
        # otherwise they are the earlier stages' own.
        art.update(netlist=netlist, placement=placement)
    return art


def _restore_routing(s: _FlowState, art: dict) -> None:
    s.routing_results = art["routing_results"]
    s.decomposition = art["decomposition"]
    if "netlist" in art:
        s.netlist = art["netlist"]
        s.placement = art["placement"]
    for side, specs in s.decomposition.specs.items():
        s.tr.gauge(f"decompose.nets.{side.value}", len(specs))
    s.tr.gauge("decompose.bridges", len(s.decomposition.bridges))
    for side, result in s.routing_results.items():
        s.tr.gauge(f"route.{side.value}.nets", len(result.routes))
        s.tr.gauge(f"route.{side.value}.wirelength_um",
                   result.total_wirelength_nm / 1000.0)
        s.tr.gauge(f"route.{side.value}.drv", result.drv_count)
        s.tr.gauge(f"route.{side.value}.overflow_edges",
                   result.overflow_edges)
        s.tr.gauge(f"route.{side.value}.rrr_iterations", result.iterations)
    s.tr.gauge("route.drv_total",
               sum(r.drv_count for r in s.routing_results.values()))
    s.guard.check_decomposition(s.netlist, s.decomposition)


def _exec_def_merge(s: _FlowState) -> dict:
    # Two DEFs; restore merges them for dual-sided extraction
    # (Section III.C), so the artifact holds each route only once.
    netlist = s.netlist
    defs = {}
    for side, routed in s.routing_results.items():
        with s.tr.span(f"def_export.{side.value}"):
            defs[side] = def_from_routing(
                netlist, s.placement, s.die, routed, assign_layers(routed),
                powerplan=s.powerplan,
                design_name=f"{netlist.name}_{side.value}",
            )
    if _corrupting(s.plan, "def_merge", s.config):
        _corrupt_def(defs[Side.FRONT])
    return {"defs": defs}


def _restore_def_merge(s: _FlowState, art: dict) -> None:
    s.defs = art["defs"]
    if Side.BACK in s.defs:
        s.merged = merge_defs(s.defs[Side.FRONT], s.defs[Side.BACK],
                              name=s.netlist.name)
        s.tr.gauge("merge.components", len(s.merged.components))
        s.tr.gauge("merge.nets", len(s.merged.nets))
    else:
        s.merged = s.defs[Side.FRONT]
    s.guard.check_merged_def(s.netlist, s.merged)


def _exec_extraction(s: _FlowState) -> dict:
    derates = congestion_derates(s.routing_results)
    return {"extraction": extract_design(s.merged, s.netlist, s.library,
                                         s.placement, rc_derates=derates),
            "derated_nets": len(derates)}


def _restore_extraction(s: _FlowState, art: dict) -> None:
    s.extraction = art["extraction"]
    s.tr.gauge("extract.nets", len(s.extraction))
    s.tr.gauge("extract.derated_nets", art["derated_nets"])
    s.tr.gauge("extract.total_wire_cap_ff", s.extraction.total_wire_cap_ff)


def _exec_sta(s: _FlowState) -> dict:
    return {"timing": analyze_timing(s.netlist, s.library, s.extraction,
                                     s.config.target_period_ps,
                                     clock=s.config.clock)}


def _restore_sta(s: _FlowState, art: dict) -> None:
    s.timing = art["timing"]
    s.achieved_ghz = s.timing.achieved_frequency_ghz
    s.tr.gauge("sta.endpoints", s.timing.endpoint_count)
    s.tr.gauge("sta.achieved_frequency_ghz", s.achieved_ghz)
    s.tr.gauge("sta.wns_ps", s.timing.wns_ps)


def _exec_power(s: _FlowState) -> dict:
    power = analyze_power(s.netlist, s.library, s.extraction, s.achieved_ghz,
                          activity=s.config.activity, clock=s.config.clock)
    if _corrupting(s.plan, "power", s.config):
        power = dataclasses.replace(
            power, switching_mw=-abs(power.switching_mw) - 1.0)
    return {"power": power}


def _restore_power(s: _FlowState, art: dict) -> None:
    s.power = art["power"]
    s.tr.gauge("power.switching_mw", s.power.switching_mw)
    s.tr.gauge("power.internal_mw", s.power.internal_mw)
    s.tr.gauge("power.leakage_mw", s.power.leakage_mw)
    s.tr.gauge("power.total_mw", s.power.total_mw)


#: The flow as a declarative stage chain.  ``config_fields`` lists only
#: the fields the stage itself reads — earlier stages' fields are
#: inherited through key chaining (see
#: :func:`repro.core.stages.stage_key`).  Note which stages do *not*
#: read the layer split: everything up to and including
#: ``legalization``, which is exactly the prefix a Table III
#: layer-split enumeration shares.
FLOW_GRAPH = StageGraph((
    # library build + input-pin redistribution
    Stage("library",
          config_fields=frozenset({"arch", "backside_pin_fraction", "seed"}),
          execute=_exec_library, restore=_restore_library),
    # netlist generation + library binding
    Stage("netlist",
          config_fields=frozenset(), uses_netlist=True,
          execute=_exec_netlist, restore=_restore_netlist),
    # synthesis-style timing optimization
    Stage("sizing",
          config_fields=frozenset({"target_frequency_ghz", "clock",
                                   "sizing_iterations", "max_fanout"}),
          execute=_exec_sizing, restore=_restore_sizing),
    Stage("floorplan",
          config_fields=frozenset({"utilization", "aspect_ratio",
                                   "macro_halo_cpp"}),
          execute=_exec_floorplan, restore=_restore_floorplan),
    # BSPDN + Power Tap Cells
    Stage("powerplan",
          config_fields=frozenset({"power_stripe_pitch_cpp"}),
          execute=_exec_powerplan, restore=_restore_powerplan),
    Stage("placement",
          config_fields=frozenset({"seed"}),
          execute=_exec_placement, restore=_restore_placement),
    Stage("cts",
          config_fields=frozenset({"clock", "cts_mode",
                                   "cts_back_fraction"}),
          execute=_exec_cts, restore=_restore_cts),
    # post-CTS legalization (+ optional refinement)
    Stage("legalization",
          config_fields=frozenset({"refine_placement", "refine_iterations",
                                   "seed"}),
          execute=_exec_legalization, restore=_restore_legalization),
    # grids, Algorithm 1 decomposition, per-side routing
    Stage("routing",
          config_fields=frozenset({"front_layers", "back_layers",
                                   "gcell_tracks", "allow_bridging",
                                   "rrr_iterations"}),
          execute=_exec_routing, restore=_restore_routing),
    # per-side DEF export + dual-sided merge
    Stage("def_merge",
          config_fields=frozenset(),
          execute=_exec_def_merge, restore=_restore_def_merge),
    # dual-sided RC extraction
    Stage("extraction",
          config_fields=frozenset(),
          execute=_exec_extraction, restore=_restore_extraction),
    Stage("sta",
          config_fields=frozenset({"target_frequency_ghz", "clock"}),
          execute=_exec_sta, restore=_restore_sta),
    Stage("power",
          config_fields=frozenset({"activity", "clock"}),
          execute=_exec_power, restore=_restore_power),
))

#: The flow's top-level stages (the paper's Fig. 7 pipeline), in
#: execution order.  Every run emits exactly these depth-0 spans, so
#: traces, reports and tests share one canonical stage list.
FLOW_STAGES = FLOW_GRAPH.names


def stage_keys(config: FlowConfig, netlist_fp: str) -> dict[str, str]:
    """Every stage's content-addressed key for one (config, netlist),
    each chained from the key of the stage before it."""
    keys: dict[str, str] = {}
    previous = None
    for stage in FLOW_GRAPH:
        previous = stages_mod.stage_key(stage, config, previous,
                                        netlist_fp=netlist_fp)
        keys[stage.name] = previous
    return keys


def artifact_key(name: str, config: FlowConfig, netlist_fp: str) -> str:
    """Store key of the terminal artifact ``name`` for one walk.

    Derived from the last stage's key, so it covers every input that
    can reach the walk's output: :meth:`FLOW_GRAPH.transitive_fields
    <repro.core.stages.StageGraph.transitive_fields>` of the final
    stage is every config field but ``tag``.  The name is hashed in so
    that each artifact's key — and the lockfile a lease on it takes —
    differs from the final stage's own: the cold walk behind a
    ``nominal`` lease leases that stage too.
    """
    terminal = stage_keys(config, netlist_fp)[FLOW_STAGES[-1]]
    return hashlib.sha256(f"{name}\0{terminal}".encode()).hexdigest()


def run_flow(netlist_factory: Callable[[], Netlist], config: FlowConfig,
             return_artifacts: bool = False,
             tracer: "telemetry.Tracer | None" = None,
             faults: "faults_mod.FaultPlan | None" = None,
             store: StageStore | None = None,
             stop_after: str | None = None):
    """Run the complete flow; returns a :class:`PPAResult`.

    ``netlist_factory`` must return a *fresh* netlist each call (the
    flow mutates it: buffering, sizing, CTS).  Raises
    :class:`~repro.pnr.PlacementError` when the target utilization
    cannot be placed (e.g. beyond the tap-cell limit).

    Pass a :class:`~repro.core.telemetry.Tracer` to record per-stage
    spans (:data:`FLOW_STAGES`) and subsystem counters; telemetry never
    changes the result.  The tracer is activated for the duration of
    the call so instrumented subsystems report into it.

    The :class:`~repro.core.guard.FlowGuard` checks each hand-off it
    covers and the final result; a violation raises
    :class:`~repro.core.errors.GuardViolation`.  ``faults`` injects
    deterministic failures for testing the recovery paths (default:
    the ``$REPRO_FAULTS`` plan, normally inert); see
    :mod:`repro.core.faults`.  Neither the checks nor an inert plan
    changes a healthy run's result.

    ``store`` attaches a :class:`~repro.core.stages.StageStore`: stages
    whose key is already stored are replayed from their artifact, and
    freshly executed stages are stored for later walks.  The store
    never changes what a run returns — only how much of it is
    recomputed.  It is bypassed when fault injection is active.

    ``stop_after`` names a stage after which the walk stops; the
    partial :class:`FlowArtifacts` (with :attr:`~FlowArtifacts.stage_status`)
    is returned, with ``result`` populated only when the walk reaches
    the final stage.
    """
    if faults is None:
        faults = faults_mod.plan_from_env()
    if faults.flow_active:
        # Injected flow faults must never write to (or be hidden by)
        # the store.  Cache-point fault clauses (``cache.*``/``lock.*``)
        # keep the store attached — they exist to exercise it.
        store = None
    if stop_after is not None and stop_after not in FLOW_GRAPH:
        raise ValueError(
            f"unknown stage {stop_after!r} (stages: {', '.join(FLOW_STAGES)})")
    with telemetry.activate(tracer) as tr:
        return _run_flow_traced(netlist_factory, config, return_artifacts,
                                tr, faults, store=store,
                                stop_after=stop_after)


def _netlist_for_fingerprint(netlist_factory, config) -> Netlist:
    """Build the fingerprint netlist, attributing failures to ``netlist``."""
    try:
        return netlist_factory()
    except (KeyboardInterrupt, SystemExit):
        raise
    except BaseException as exc:
        wrapped = wrap_stage_error(exc, "netlist", config.label)
        if wrapped is exc:
            raise
        raise wrapped from exc


def _run_flow_traced(netlist_factory, config, return_artifacts, tr,
                     plan=faults_mod.FaultPlan(), store=None,
                     stop_after=None):
    state = _FlowState(config, tr, plan, netlist_factory)
    keys: dict[str, str] = {}
    if store is not None:
        state.base_netlist = _netlist_for_fingerprint(netlist_factory, config)
        keys = stage_keys(config, netlist_fingerprint(state.base_netlist))

    status: dict[str, str] = {}
    for stage in FLOW_GRAPH:
        artifact = lease = None
        if store is not None:
            # Single-flight: a hit loads the artifact; a miss either
            # wins a lease (this process computes while concurrent
            # missers of the same key wait) or — after a bounded wait
            # that timed out — degrades to independent computation.
            artifact, lease = store.fetch_or_lease(
                stage.name, keys[stage.name])
        ran = artifact is None
        try:
            # Executed or replayed, a stage is one top-level span (so the
            # canonical stage list holds for every trace) ending in its
            # restore, which installs the artifact, re-runs the guard
            # checks and emits the result gauges.  A replay marks the
            # span with a zero-cost cache_hit; an executed artifact is
            # stored only once its restore has accepted it.
            with _stage(tr, stage.name, config, plan):
                if ran:
                    artifact = stage.execute(state)
                else:
                    tr.zero_span("cache_hit")
                stage.restore(state, artifact)
            if ran and store is not None:
                store.put(stage.name, keys[stage.name], artifact)
        finally:
            # Publish-before-release: waiters poll the lock, so by
            # the time it disappears the artifact must be readable
            # (or the stage failed and a waiter takes over).
            if lease is not None:
                lease.release()
        status[stage.name] = "ran" if ran else "cached"
        if stage.name == stop_after:
            break

    result = None
    if stop_after in (None, FLOW_STAGES[-1]):
        result = _ppa_result(state)
        state.guard.check_result(result)
        if stop_after is None and not return_artifacts:
            return result
    return FlowArtifacts(
        library=state.library, netlist=state.netlist, die=state.die,
        powerplan=state.powerplan, placement=state.placement,
        cts_report=state.cts_report,
        routing_results=state.routing_results, defs=state.defs,
        merged_def=state.merged, extraction=state.extraction,
        result=result,
        trace=tr.finish() if tr.enabled else telemetry.Trace(),
        stage_status=status,
    )


def _ppa_result(state: _FlowState) -> PPAResult:
    """The walk's :class:`PPAResult`, read off the completed state."""
    config, routing_results = state.config, state.routing_results
    front_wl = routing_results[Side.FRONT].total_wirelength_nm / 1000.0
    back_wl = (routing_results[Side.BACK].total_wirelength_nm / 1000.0
               if Side.BACK in routing_results else 0.0)
    return PPAResult(
        label=config.label,
        arch=config.arch,
        routing_label=state.tech.routing_label,
        pin_density_label=(
            pin_density_label(config.backside_pin_fraction)
            if config.arch == "ffet" and config.back_layers else ""
        ),
        target_frequency_ghz=config.target_frequency_ghz,
        target_utilization=config.utilization,
        achieved_utilization=state.util,
        core_area_um2=state.die.area_um2,
        cell_area_um2=state.netlist.total_cell_area_nm2(state.library) / 1e6,
        cell_count=len(state.netlist.instances),
        achieved_frequency_ghz=state.achieved_ghz,
        timing=state.timing,
        power=state.power,
        drv_count=sum(r.drv_count for r in routing_results.values()),
        total_wirelength_um=front_wl + back_wl,
        front_wirelength_um=front_wl,
        back_wirelength_um=back_wl,
        tap_cell_count=len(state.powerplan.tap_cells),
        cts_buffers=state.cts_report.buffers,
        placement_feasible=True,
    )
