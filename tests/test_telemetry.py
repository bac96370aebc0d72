"""Telemetry: tracer mechanics, JSONL well-formedness, PPA neutrality.

The contract under test is the one ``docs/observability.md`` documents:
tracing a run never changes its PPA (the instrumentation only reads),
every stage span closes with a non-negative duration, and the emitted
top-level stage list is exactly :data:`repro.core.flow.FLOW_STAGES`.
"""

from __future__ import annotations

import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    FLOW_STAGES,
    FlowCache,
    FlowConfig,
    NULL_TRACER,
    Trace,
    Tracer,
    current_tracer,
    run_flow,
)
from repro.core import telemetry
from repro.core.stages import StageStore
from repro.netlist import Netlist
from repro.synth import generate_multiplier

from .golden_cases import MultiplierFactory, RiscvTinyFactory

FACTORY = MultiplierFactory(4)


class TestTracer:
    def test_span_nesting(self):
        tracer = Tracer(label="t")
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
            with tracer.span("inner2"):
                pass
        trace = tracer.finish()
        names = [(s.name, s.depth) for s in trace.spans]
        assert names == [("outer", 0), ("inner", 1), ("inner2", 1)]
        assert trace.spans[1].parent == 0
        assert trace.spans[2].parent == 0
        assert trace.spans[0].parent is None
        assert trace.stage_list() == ["outer"]

    def test_durations_non_negative_and_nested_within_parent(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        trace = tracer.finish()
        a, b = trace.spans
        assert 0.0 <= b.duration_s <= a.duration_s
        assert a.start_s <= b.start_s
        assert b.end_s <= a.end_s

    def test_exception_still_closes_span(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("x")
        assert tracer.spans[0].closed

    def test_finish_closes_open_spans(self):
        tracer = Tracer()
        cm = tracer.span("left_open")
        cm.__enter__()
        trace = tracer.finish()
        assert trace.spans[0].closed
        assert trace.spans[0].duration_s >= 0.0

    def test_counters_accumulate_gauges_overwrite(self):
        tracer = Tracer()
        tracer.count("hits")
        tracer.count("hits", 2)
        tracer.gauge("cells", 10)
        tracer.gauge("cells", 20)
        trace = tracer.finish()
        assert trace.counters == {"hits": 3}
        assert trace.gauges == {"cells": 20}

    def test_zero_span_is_instantaneous(self):
        tracer = Tracer()
        span = tracer.zero_span("cache_hit")
        assert span.duration_s == 0.0
        assert tracer.finish().stage_list() == ["cache_hit"]

    def test_repeated_stage_times_sum(self):
        tracer = Tracer()
        with tracer.span("s"):
            pass
        with tracer.span("s"):
            pass
        trace = tracer.finish()
        assert trace.stage_list() == ["s", "s"]
        assert trace.stage_times()["s"] == pytest.approx(
            sum(s.duration_s for s in trace.spans))


class TestNullTracer:
    def test_default_is_null(self):
        assert current_tracer() is NULL_TRACER
        assert not NULL_TRACER.enabled

    def test_null_api_is_noop(self):
        with NULL_TRACER.span("x") as span:
            assert span is None
        NULL_TRACER.count("a")
        NULL_TRACER.gauge("b", 1)
        assert NULL_TRACER.zero_span("c") is None
        assert NULL_TRACER.finish() == Trace()

    def test_activate_restores_previous(self):
        tracer = Tracer()
        with telemetry.activate(tracer):
            assert current_tracer() is tracer
            with telemetry.activate(None):
                assert current_tracer() is NULL_TRACER
            assert current_tracer() is tracer
        assert current_tracer() is NULL_TRACER

    def test_activate_restores_after_exception(self):
        with pytest.raises(ValueError):
            with telemetry.activate(Tracer()):
                raise ValueError
        assert current_tracer() is NULL_TRACER


class TestJsonl:
    def _sample(self) -> Trace:
        tracer = Tracer(label="sample")
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        tracer.zero_span("cache_hit")
        tracer.count("cache.hits", 2)
        tracer.gauge("cells", 7)
        return tracer.finish()

    def test_round_trip(self):
        trace = self._sample()
        back = Trace.from_jsonl(trace.to_jsonl())
        assert back.label == trace.label
        assert back.counters == trace.counters
        assert back.gauges == trace.gauges
        assert back.total_s == trace.total_s
        assert [(s.name, s.depth, s.parent) for s in back.spans] \
            == [(s.name, s.depth, s.parent) for s in trace.spans]
        assert all(s.closed for s in back.spans)

    def test_every_begin_has_an_end(self):
        events = [json.loads(line)
                  for line in self._sample().to_jsonl().splitlines()]
        begins = {e["id"] for e in events if e["ev"] == "b"}
        ends = {e["id"] for e in events if e["ev"] == "e"}
        assert begins == ends

    def test_end_event_for_unknown_span_rejected(self):
        with pytest.raises(ValueError):
            Trace.from_jsonl('{"ev": "e", "id": 3, "t": 1.0}')

    def test_write_and_load(self, tmp_path):
        trace = self._sample()
        path = trace.write(tmp_path / "traces" / "run.jsonl")
        assert telemetry.load_trace(path).counters == trace.counters
        assert len(telemetry.load_traces(tmp_path / "traces")) == 1


class TestAggregation:
    def test_aggregate_stage_times(self):
        t1 = Tracer()
        with t1.span("a"):
            pass
        t2 = Tracer()
        with t2.span("a"):
            pass
        with t2.span("b"):
            pass
        traces = [t1.finish(), t2.finish()]
        totals = telemetry.aggregate_stage_times(traces)
        assert set(totals) == {"a", "b"}
        assert totals["a"] == pytest.approx(
            traces[0].stage_times()["a"] + traces[1].stage_times()["a"])

    def test_merge_counters(self):
        into: dict[str, float] = {"x": 1}
        telemetry.merge_counters(into, {"x": 2, "y": 5})
        assert into == {"x": 3, "y": 5}

    def test_format_stage_table(self):
        table = telemetry.format_stage_table({"place": 3.0, "route": 1.0})
        assert "place" in table and "route" in table
        assert "75.0%" in table and "25.0%" in table

    def test_format_stage_table_empty(self):
        assert "0.000s total" in telemetry.format_stage_table({})


#: Small, fast, always-placeable configurations for the neutrality
#: property: every draw is a full double flow run, so keep the space
#: tight but meaningfully varied.
CONFIGS = st.builds(
    FlowConfig,
    utilization=st.sampled_from([0.5, 0.6, 0.7]),
    backside_pin_fraction=st.sampled_from([0.0, 0.3, 0.5]),
    target_frequency_ghz=st.sampled_from([1.0, 1.5, 2.5]),
    seed=st.integers(0, 3),
    rrr_iterations=st.integers(1, 4),
    sizing_iterations=st.integers(0, 4),
)


class TestPpaNeutrality:
    """Tracing a run must never change its PPAResult."""

    @given(config=CONFIGS)
    @settings(max_examples=6, deadline=None)
    def test_traced_and_untraced_runs_are_identical(self, config):
        tracer = Tracer(label=config.label)
        traced = run_flow(FACTORY, config, tracer=tracer)
        untraced = run_flow(FACTORY, config)
        assert traced == untraced

    @given(config=CONFIGS)
    @settings(max_examples=4, deadline=None)
    def test_emitted_trace_is_well_formed(self, config):
        tracer = Tracer(label=config.label)
        run_flow(FACTORY, config, tracer=tracer)
        text = tracer.finish().to_jsonl()

        events = [json.loads(line) for line in text.splitlines()]
        begins = {e["id"]: e for e in events if e["ev"] == "b"}
        ends = {e["id"]: e for e in events if e["ev"] == "e"}
        # Every stage span closes...
        assert set(begins) == set(ends)
        # ...with a non-negative duration...
        for span_id, begin in begins.items():
            assert ends[span_id]["t"] >= begin["t"]
        # ...and the top-level stage list is exactly the flow's.
        stages = [e["name"] for e in events
                  if e["ev"] == "b" and e["depth"] == 0]
        assert tuple(stages) == FLOW_STAGES

    def test_null_tracer_leaves_no_current_tracer_behind(self):
        run_flow(FACTORY, FlowConfig(utilization=0.6))
        assert current_tracer() is NULL_TRACER


class TestFlowTelemetry:
    @pytest.fixture(scope="class")
    def traced(self):
        tracer = Tracer(label="probe")
        artifacts = run_flow(lambda: generate_multiplier(4),
                             FlowConfig(utilization=0.6),
                             return_artifacts=True, tracer=tracer)
        return artifacts, tracer.finish()

    def test_artifacts_carry_the_trace(self, traced):
        artifacts, trace = traced
        assert tuple(artifacts.trace.stage_list()) == FLOW_STAGES
        assert artifacts.trace.counters == trace.counters

    def test_subsystem_gauges_recorded(self, traced):
        _, trace = traced
        for gauge in ("placement.cells", "cts.buffers",
                      "decompose.nets.front", "decompose.nets.back",
                      "route.front.wirelength_um", "route.back.wirelength_um",
                      "merge.components", "extract.nets",
                      "sta.endpoints", "power.total_mw"):
            assert gauge in trace.gauges, gauge
        assert trace.gauges["placement.cells"] > 0
        assert trace.gauges["route.front.drv"] >= 0

    def test_nested_spans_present(self, traced):
        _, trace = traced
        names = {s.name for s in trace.spans if s.depth == 1}
        assert {"grids", "decompose",
                "route.front", "route.back",
                "def_export.front", "def_export.back"} <= names

    def test_untraced_artifacts_have_empty_trace(self):
        artifacts = run_flow(lambda: generate_multiplier(4),
                             FlowConfig(utilization=0.6),
                             return_artifacts=True)
        assert artifacts.trace == Trace()


class TestNetlistBinds:
    def test_a_cold_rv8_flow_binds_three_times(self, monkeypatch, tmp_path):
        """``kernel.netlist.binds`` counts work, like every ``kernel.*``
        counter: a cold rv8 flow binds once in the netlist stage, once
        after fanout buffering and once after CTS; a replayed walk
        binds nothing."""
        callers = []
        bind = Netlist.bind

        def spy(netlist, library):
            callers.append(sys._getframe(1).f_code.co_name)
            return bind(netlist, library)

        monkeypatch.setattr(Netlist, "bind", spy)
        store = StageStore(FlowCache(tmp_path))
        cold, warm = Tracer(label="cold"), Tracer(label="warm")
        run_flow(RiscvTinyFactory(), FlowConfig(), tracer=cold, store=store)
        assert callers == ["_exec_netlist", "buffer_high_fanout",
                           "synthesize_clock_tree"]
        assert cold.finish().counters["kernel.netlist.binds"] == 3
        run_flow(RiscvTinyFactory(), FlowConfig(), tracer=warm, store=store)
        assert len(callers) == 3
        assert "kernel.netlist.binds" not in warm.finish().counters
