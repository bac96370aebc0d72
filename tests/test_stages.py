"""Stage graph, stage keys, the StageStore, and incremental replay.

The stage-graph contract (docs/architecture.md): each stage's key
covers exactly its declared config slice plus the previous stage's
key, the store never changes what a run returns, replayed stages re-run
their guard checks, and a layer-split sweep shares the whole
library..legalization prefix.
"""

from __future__ import annotations

import ast
import pickle
import re
from pathlib import Path

import pytest

import repro
from repro.core import FlowCache, FlowConfig, SweepRunner, Tracer
from repro.core import stages as stages_mod
from repro.core.cache import netlist_fingerprint, result_to_payload
from repro.core.errors import FlowError
from repro.core.faults import FaultClause, FaultPlan
from repro.core.flow import (FLOW_GRAPH, FLOW_STAGES, _FlowState, run_flow,
                             stage_keys)
from repro.core.stages import Stage, StageGraph, StageStore
from repro.core.telemetry import NULL_TRACER
from repro.lefdef import write_def
from repro.synth import RiscvConfig, generate_riscv_core, generate_rv16_sram

from .golden_cases import MultiplierFactory

FACTORY = MultiplierFactory(5)
BASE = FlowConfig()

#: Holds the stage table that must match ``FLOW_GRAPH``.
ARCHITECTURE_DOC = Path(__file__).resolve().parents[1] / "docs" / \
    "architecture.md"

#: The stages every Table III layer split shares (everything before
#: the layer counts first enter the key chain, at ``routing``).
PREFIX_STAGES = FLOW_STAGES[:FLOW_STAGES.index("routing")]


def _keys(config: FlowConfig) -> dict[str, str]:
    return stage_keys(config, netlist_fingerprint(FACTORY()))


class TestStageGraph:
    def test_graph_matches_canonical_stage_list(self):
        assert FLOW_GRAPH.names == FLOW_STAGES

    def test_architecture_doc_table_is_the_graph(self):
        """docs/architecture.md lists the stages in walk order, each
        with its own config slice (and the netlist for ``netlist``)."""
        lines = ARCHITECTURE_DOC.read_text().splitlines()
        start = lines.index("| stage | own config slice |") + 2
        rows = {}
        for line in lines[start:]:
            if not line.startswith("|"):
                break
            stage, own = (cell.strip() for cell in line.strip("|").split("|"))
            rows[stage.strip("`")] = (frozenset(re.findall(r"`(\w+)`", own)),
                                      "netlist fingerprint" in own)
        assert rows == {stage.name: (stage.config_fields, stage.uses_netlist)
                        for stage in FLOW_GRAPH}
        assert tuple(rows) == FLOW_STAGES

    def test_layer_fields_first_enter_at_routing(self):
        for name in PREFIX_STAGES:
            fields = FLOW_GRAPH.transitive_fields(name)
            assert "front_layers" not in fields
            assert "back_layers" not in fields
        assert {"front_layers", "back_layers"} <= \
            FLOW_GRAPH.transitive_fields("routing")

    def test_every_stage_slice_names_real_config_fields(self):
        with pytest.raises(ValueError, match="unknown config"):
            StageGraph((Stage("x", frozenset({"no_such_field"}),
                              execute=lambda s: None,
                              restore=lambda s, a: None),))

    def test_duplicate_stage_names_rejected(self):
        s = Stage("x", frozenset(), execute=lambda s: None,
                  restore=lambda s, a: None)
        with pytest.raises(ValueError, match="duplicate"):
            StageGraph((s, s))


class TestStageKey:
    def test_deterministic(self):
        assert _keys(BASE) == _keys(BASE)

    def test_own_field_changes_own_key(self):
        a, b = _keys(BASE), _keys(BASE.with_(utilization=0.6))
        assert a["floorplan"] != b["floorplan"]

    def test_changes_are_transitive_downstream(self):
        a, b = _keys(BASE), _keys(BASE.with_(utilization=0.6))
        floorplan_at = FLOW_STAGES.index("floorplan")
        for name in FLOW_STAGES[:floorplan_at]:
            assert a[name] == b[name]
        for name in FLOW_STAGES[floorplan_at:]:
            assert a[name] != b[name]

    def test_layer_split_shares_the_prefix(self):
        a = _keys(BASE)
        b = _keys(BASE.with_(front_layers=9, back_layers=3))
        for name in PREFIX_STAGES:
            assert a[name] == b[name]
        assert a["routing"] != b["routing"]

    @pytest.mark.parametrize("override", [{"cts_mode": "dual"},
                                          {"cts_back_fraction": 0.25}])
    def test_cts_fields_first_enter_at_cts(self, override):
        """The dual-CTS knobs invalidate the cts key and everything
        after it — and nothing upstream of it."""
        a, b = _keys(BASE), _keys(BASE.with_(**override))
        cts_at = FLOW_STAGES.index("cts")
        for name in FLOW_STAGES[:cts_at]:
            assert a[name] == b[name], name
        for name in FLOW_STAGES[cts_at:]:
            assert a[name] != b[name], name

    def test_cts_fields_in_no_upstream_slice(self):
        for name in FLOW_STAGES[:FLOW_STAGES.index("cts")]:
            fields = FLOW_GRAPH.transitive_fields(name)
            assert "cts_mode" not in fields
            assert "cts_back_fraction" not in fields
        assert {"cts_mode", "cts_back_fraction"} <= \
            FLOW_GRAPH.transitive_fields("cts")

    def test_netlist_fingerprint_spares_the_library(self):
        a = stage_keys(BASE, "fp-one")
        b = stage_keys(BASE, "fp-two")
        assert a["library"] == b["library"]
        for name in FLOW_STAGES[1:]:
            assert a[name] != b[name]

    def test_version_invalidates_everything(self, monkeypatch):
        """The code fingerprint is the store's one version: any source
        edit changes every stage key."""
        a = _keys(BASE)
        monkeypatch.setattr(stages_mod, "code_fingerprint", lambda: "edited")
        b = _keys(BASE)
        assert all(a[name] != b[name] for name in FLOW_STAGES)


class TestStageStore:
    def test_round_trip_and_counters(self, tmp_path):
        store = StageStore(FlowCache(tmp_path))
        assert store.get("placement", "k" * 64) is None
        assert store.put("placement", "k" * 64, {"placement": [1, 2]})
        assert store.get("placement", "k" * 64) == {"placement": [1, 2]}
        assert (store.hits, store.misses) == (1, 1)
        assert store.counters() == {
            "stage_cache.hits": 1.0, "stage_cache.misses": 1.0,
            "stage_cache.hit.placement": 1.0,
            "stage_cache.miss.placement": 1.0,
        }

    def test_key_is_namespaced_by_stage(self, tmp_path):
        store = StageStore(FlowCache(tmp_path))
        store.put("placement", "k" * 64, {"placement": []})
        assert store.get("routing", "k" * 64) is None

    def test_malformed_entry_is_a_miss(self, tmp_path):
        cache = FlowCache(tmp_path)
        store = StageStore(cache)
        cache.put("k" * 64, "stage-placement", {"wrong": "shape"})
        assert store.get("placement", "k" * 64) is None

    def test_tallies_on_the_active_tracer(self, tmp_path):
        store = StageStore(FlowCache(tmp_path))
        tracer = Tracer(label="t")
        from repro.core import telemetry
        with telemetry.activate(tracer):
            store.get("cts", "k" * 64)
        counters = tracer.finish().counters
        assert counters["stage_cache.misses"] == 1
        assert counters["stage_cache.miss.cts"] == 1


class TestIncrementalFlow:
    def test_warm_walk_replays_every_stage_bit_for_bit(self, tmp_path):
        store = StageStore(FlowCache(tmp_path))
        cold = run_flow(FACTORY, BASE, store=store)
        assert store.hits == 0 and store.misses == len(FLOW_STAGES)
        warm = run_flow(FACTORY, BASE, store=store)
        assert result_to_payload(warm) == result_to_payload(cold)
        assert store.hits == len(FLOW_STAGES)

    def test_store_matches_storeless_run(self, tmp_path):
        plain = run_flow(FACTORY, BASE)
        stored = run_flow(FACTORY, BASE, store=StageStore(FlowCache(tmp_path)))
        assert result_to_payload(stored) == result_to_payload(plain)

    def test_stage_status_reports_the_walk(self, tmp_path):
        store = StageStore(FlowCache(tmp_path))
        cold = run_flow(FACTORY, BASE, store=store, return_artifacts=True)
        assert cold.stage_status == {n: "ran" for n in FLOW_STAGES}
        warm = run_flow(FACTORY, BASE, store=store, return_artifacts=True)
        assert warm.stage_status == {n: "cached" for n in FLOW_STAGES}

    def test_stop_after_walks_a_partial_graph(self, tmp_path):
        store = StageStore(FlowCache(tmp_path))
        art = run_flow(FACTORY, BASE, store=store, stop_after="cts")
        walked = FLOW_STAGES[:FLOW_STAGES.index("cts") + 1]
        assert tuple(art.stage_status) == walked
        assert art.result is None
        assert art.placement is not None
        assert art.routing_results is None
        # A later full run replays the partial walk's prefix.
        run_flow(FACTORY, BASE, store=store)
        assert store.hits == len(walked)

    def test_stop_after_final_stage_returns_full_artifacts(self):
        art = run_flow(FACTORY, BASE, stop_after=FLOW_STAGES[-1])
        assert art.result is not None and art.result.valid

    def test_stop_after_unknown_stage_rejected(self):
        with pytest.raises(ValueError, match="unknown stage"):
            run_flow(FACTORY, BASE, stop_after="place_and_route")

    def test_replayed_stage_emits_cache_hit_span(self, tmp_path):
        store = StageStore(FlowCache(tmp_path))
        run_flow(FACTORY, BASE, store=store)
        tracer = Tracer(label="warm")
        run_flow(FACTORY, BASE, store=store, tracer=tracer)
        trace = tracer.finish()
        assert trace.stage_list() == list(FLOW_STAGES)
        hits = [s for s in trace.spans if s.name == "cache_hit"]
        assert len(hits) == len(FLOW_STAGES)

    def test_guard_revalidates_replayed_artifacts(self, tmp_path):
        cache = FlowCache(tmp_path)
        store = StageStore(cache)
        run_flow(FACTORY, BASE, store=store)
        # Corrupt the stored placement artifact: drop one instance.
        keys = stage_keys(BASE, netlist_fingerprint(FACTORY()))
        art = store.get("placement", keys["placement"])
        del art["placement"].locations[next(iter(art["placement"].locations))]
        store.put("placement", keys["placement"], art)
        with pytest.raises(FlowError) as err:
            run_flow(FACTORY, BASE, store=StageStore(cache))
        assert err.value.stage == "placement"

    def test_active_faults_bypass_the_store(self, tmp_path):
        store = StageStore(FlowCache(tmp_path))
        # An active-but-never-firing plan must still disable the store.
        plan = FaultPlan((FaultClause(stage="sta", mode="raise", rate=0.0),))
        result = run_flow(FACTORY, BASE, store=store, faults=plan)
        assert result.valid
        assert store.hits == 0 and store.misses == 0

    def test_failing_restore_stores_nothing(self, tmp_path):
        """The Power-Tap-Cell limit is checked by powerplan's restore:
        an executed layout that fails it is never stored."""
        store = StageStore(FlowCache(tmp_path))
        config = BASE.with_(utilization=0.99)
        with pytest.raises(FlowError) as err:
            run_flow(FACTORY, config, store=store)
        assert err.value.stage == "powerplan"
        keys = stage_keys(config, netlist_fingerprint(FACTORY()))
        assert store.get("floorplan", keys["floorplan"]) is not None
        assert store.get("powerplan", keys["powerplan"]) is None


class TestLayerSplitSweepReplay:
    """The tentpole property: a Table III layer-split enumeration
    places once and routes N times."""

    SPLITS = ((9, 3), (8, 4), (7, 5), (6, 6))

    def test_prefix_executes_exactly_once_across_splits(self, tmp_path):
        runner = SweepRunner(jobs=1, cache=FlowCache(tmp_path))
        configs = [BASE.with_(front_layers=f, back_layers=b)
                   for f, b in self.SPLITS]
        results = runner.run_many(FACTORY, configs)
        assert all(r.valid for r in results)
        counters = runner.stats.stage_counters
        for name in PREFIX_STAGES:
            assert counters.get(f"stage_cache.miss.{name}", 0) == 1, name
            assert counters.get(f"stage_cache.hit.{name}", 0) == \
                len(self.SPLITS) - 1, name
        for name in FLOW_STAGES[FLOW_STAGES.index("routing"):]:
            assert counters.get(f"stage_cache.miss.{name}", 0) == \
                len(self.SPLITS), name
            assert counters.get(f"stage_cache.hit.{name}", 0) == 0, name

    def test_stats_report_per_stage_hit_rates(self, tmp_path):
        runner = SweepRunner(jobs=1, cache=FlowCache(tmp_path))
        configs = [BASE.with_(front_layers=f, back_layers=b)
                   for f, b in self.SPLITS]
        runner.run_many(FACTORY, configs)
        rates = runner.stats.stage_hit_rates()
        assert rates["placement"] == pytest.approx(0.75)
        assert rates["routing"] == 0.0
        assert "stage replays" in runner.stats.summary()

    def test_dual_cts_layer_split_sweep_places_exactly_once(self, tmp_path):
        """The acceptance property of dual-sided CTS as a config-sliced
        stage: a layer-split sweep with ``cts_mode="dual"`` still shares
        the whole library..legalization prefix — placement executes
        exactly once across the splits."""
        runner = SweepRunner(jobs=1, cache=FlowCache(tmp_path))
        configs = [BASE.with_(cts_mode="dual", front_layers=f, back_layers=b)
                   for f, b in self.SPLITS]
        results = runner.run_many(FACTORY, configs)
        assert all(r.valid for r in results)
        counters = runner.stats.stage_counters
        for name in PREFIX_STAGES:
            assert counters.get(f"stage_cache.miss.{name}", 0) == 1, name
            assert counters.get(f"stage_cache.hit.{name}", 0) == \
                len(self.SPLITS) - 1, name

    def test_cts_mode_sweep_shares_the_placement_prefix(self, tmp_path):
        """Flipping only the CTS mode re-runs cts..power and replays
        library..placement — CTS is the first stage whose key differs."""
        runner = SweepRunner(jobs=1, cache=FlowCache(tmp_path))
        configs = [BASE, BASE.with_(cts_mode="dual")]
        results = runner.run_many(FACTORY, configs)
        assert all(r.valid for r in results)
        counters = runner.stats.stage_counters
        cts_at = FLOW_STAGES.index("cts")
        for name in FLOW_STAGES[:cts_at]:
            assert counters.get(f"stage_cache.miss.{name}", 0) == 1, name
            assert counters.get(f"stage_cache.hit.{name}", 0) == 1, name
        for name in FLOW_STAGES[cts_at:]:
            assert counters.get(f"stage_cache.miss.{name}", 0) == 2, name
            assert counters.get(f"stage_cache.hit.{name}", 0) == 0, name

    def test_refreshed_sweep_replays_instead_of_recomputing(self, tmp_path):
        cache = FlowCache(tmp_path)
        configs = [BASE.with_(front_layers=f, back_layers=b)
                   for f, b in self.SPLITS]
        first = SweepRunner(jobs=1, cache=cache)
        cold = first.run_many(FACTORY, configs)
        second = SweepRunner(jobs=1, cache=cache, refresh=True)
        warm = second.run_many(FACTORY, configs)
        assert [result_to_payload(r) for r in warm] == \
            [result_to_payload(r) for r in cold]
        assert second.stats.cache_hits == 0
        assert second.stats.stage_hits == \
            len(self.SPLITS) * len(FLOW_STAGES)


def _rv8():
    return generate_riscv_core(RiscvConfig(xlen=8, nregs=8, name="rv8"))


def _rv8_sram():
    return generate_rv16_sram(xlen=8, nregs=8, words=16, name="rv8_sram")


def _result_gauges(trace) -> dict[str, str]:
    """A trace's gauges outside ``kernel.*``, as ``float.hex`` strings."""
    return {name: float(value).hex() for name, value in trace.gauges.items()
            if not name.startswith("kernel.")}


def _traced_walk(factory, config, store=None):
    tracer = Tracer()
    run_flow(factory, config, store=store, tracer=tracer)
    return tracer.finish()


class TestReplayedGauges:
    """Every stage's result gauges come from its restore, which runs on
    executed and replayed stages alike: a replayed walk's trace explains
    the run as fully as the cold walk's."""

    @pytest.mark.parametrize("factory, config", [
        (_rv8, BASE),
        (_rv8_sram, BASE),
        (_rv8, BASE.with_(cts_mode="dual")),
    ], ids=["rv8", "rv8_sram", "rv8_dual_cts"])
    def test_replayed_walk_emits_the_cold_walks_gauges(self, tmp_path,
                                                        factory, config):
        store = StageStore(FlowCache(tmp_path))
        cold = _traced_walk(factory, config, store)
        warm = _traced_walk(factory, config, store)
        assert store.hits == len(FLOW_STAGES)
        assert any(name.startswith("route.") for name in _result_gauges(cold))
        assert _result_gauges(warm) == _result_gauges(cold)

    def test_routing_after_a_replayed_prefix_emits_the_cold_gauges(
            self, tmp_path):
        split = BASE.with_(front_layers=9, back_layers=3)
        store = StageStore(FlowCache(tmp_path))
        run_flow(_rv8, BASE, store=store)
        warm = _traced_walk(_rv8, split, store)
        assert store.hits == FLOW_STAGES.index("routing")
        cold = _traced_walk(_rv8, split)
        assert _result_gauges(warm) == _result_gauges(cold)


class TestRoutingArtifact:
    def test_unbridged_routing_stores_no_netlist_or_placement(self,
                                                              tmp_path):
        store = StageStore(FlowCache(tmp_path))
        art = run_flow(_rv8, BASE, store=store, return_artifacts=True)
        keys = stage_keys(BASE, netlist_fingerprint(_rv8()))
        routing = store.get("routing", keys["routing"])
        assert not routing["decomposition"].bridges
        assert "netlist" not in routing and "placement" not in routing
        # Restore keeps the upstream netlist and placement.
        state = _FlowState(BASE, NULL_TRACER, FaultPlan(), _rv8)
        state.netlist, state.placement = art.netlist, art.placement
        FLOW_GRAPH["routing"].restore(state, routing)
        assert state.netlist is art.netlist
        assert state.placement is art.placement
        # A bridged artifact carries both, and restore installs them.
        bridged = dict(routing, netlist=pickle.loads(pickle.dumps(
            art.netlist)), placement=pickle.loads(pickle.dumps(
                art.placement)))
        FLOW_GRAPH["routing"].restore(state, bridged)
        assert state.netlist is bridged["netlist"]
        assert state.placement is bridged["placement"]


class TestDefMergeArtifact:
    """``def_merge`` stores the two per-side DEFs and its restore
    merges them, so every route is stored once and a replayed walk
    still installs the cold walk's merged DEF."""

    @pytest.mark.parametrize("config", [
        BASE, BASE.with_(back_layers=0, backside_pin_fraction=0.0),
    ], ids=["FM12BM12", "FM12"])
    def test_artifact_is_the_defs_and_replays_the_merge(self, tmp_path,
                                                        config):
        store = StageStore(FlowCache(tmp_path))
        cold = run_flow(FACTORY, config, store=store, return_artifacts=True)
        keys = stage_keys(config, netlist_fingerprint(FACTORY()))
        artifact = store.get("def_merge", keys["def_merge"])
        assert set(artifact) == {"defs"}
        assert set(artifact["defs"]) == set(cold.routing_results)
        warm = run_flow(FACTORY, config, store=store, return_artifacts=True)
        assert warm.stage_status["def_merge"] == "cached"
        assert write_def(warm.merged_def) == write_def(cold.merged_def)


def _functions(tree: ast.AST) -> list[ast.FunctionDef]:
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef)]


class TestStageContract:
    SRC = Path(repro.__file__).parent

    def test_execute_never_assigns_the_walk_state(self):
        flow = ast.parse((self.SRC / "core" / "flow.py").read_text())
        for fn in _functions(flow):
            if not fn.name.startswith("_exec_"):
                continue
            state = fn.args.args[0].arg
            for node in ast.walk(fn):
                targets = []
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                    targets = [node.target]
                for target in targets:
                    for sub in ast.walk(target):
                        assert not (isinstance(sub, ast.Attribute)
                                    and isinstance(sub.value, ast.Name)
                                    and sub.value.id == state), \
                            f"{fn.name} assigns {state}.{sub.attr}"

    def test_result_gauges_come_from_the_flow(self):
        """Outside the flow's stages (and the CTS gauge helper they
        call), code emits only ``kernel.*`` gauges."""
        allowed = {self.SRC / "core" / "flow.py",
                   self.SRC / "core" / "telemetry.py"}
        for path in sorted(self.SRC.rglob("*.py")):
            if path in allowed:
                continue
            tree = ast.parse(path.read_text())
            exempt = {id(node) for fn in _functions(tree)
                      if fn.name == "emit_cts_gauges"
                      for node in ast.walk(fn)}
            for node in ast.walk(tree):
                if id(node) in exempt or not (
                        isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "gauge"):
                    continue
                name = node.args[0]
                if isinstance(name, ast.JoinedStr):
                    name = name.values[0]
                assert isinstance(name, ast.Constant) \
                    and name.value.startswith("kernel."), \
                    f"{path.name}:{node.lineno}"
