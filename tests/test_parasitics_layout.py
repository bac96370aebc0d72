"""One array layout for parasitics, checked against per-net oracles.

:class:`~repro.extract.Extraction` holds per-net arrays and one sink
table.  The fanout wireload model writes them with array arithmetic,
and STA, power and the Monte-Carlo wire factors gather from them by
index.  Each is pinned here at zero ULP against the per-net code it
replaced (``tests/reference``):

* the wireload arrays against one ``NetParasitics`` per net, before
  and after sizing;
* the STA, power and wire-factor gathers against a walk net by net
  through ``extraction[net]``, on an extraction the netlist has moved
  away from (a net added and a sink moved, as ``fix_hold`` does).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import FlowConfig
from repro.core.flow import prepare_library, run_flow
from repro.extract import Extraction, estimate_loads, estimate_parasitics
from repro.macros import attach_macros
from repro.power import analyze_power_rows
from repro.sta import TimingGraph, analyze_timing_rows
from repro.synth import (
    RiscvConfig,
    generate_riscv_core,
    generate_rv16_sram,
    generate_rv16_tile,
    size_for_target,
)
from repro.variation import VariationModel
from repro.variation.perturb import overlay_rc_factor, wire_factors

from . import reference

DESIGNS = {
    "rv8": lambda: generate_riscv_core(
        RiscvConfig(xlen=8, nregs=8, name="rv8")),
    "rv8_sram": lambda: generate_rv16_sram(
        xlen=8, nregs=8, words=16, name="rv8_sram"),
    "rv8_tile": lambda: generate_rv16_tile(
        xlen=8, nregs=8, words=16, name="rv8_tile"),
    "rv16": lambda: generate_riscv_core(
        RiscvConfig(xlen=16, nregs=8, name="rv16")),
}


def hexes(values: np.ndarray) -> list[str]:
    return [v.hex() for v in values.tolist()]


def layout_bits(extraction: Extraction):
    """Every array and the sink table, floats by ``float.hex``."""
    return (extraction.names,
            hexes(extraction.wire_cap_ff), hexes(extraction.wire_res_kohm),
            hexes(extraction.pin_cap_ff), hexes(extraction.wirelength_nm),
            hexes(extraction.back_wirelength_nm),
            extraction.via_count.tolist(), extraction.sinks,
            extraction.sink_net.tolist(), hexes(extraction.sink_elmore_ps))


@pytest.fixture(scope="module")
def library():
    return prepare_library(FlowConfig())


class TestWireloadArrays:
    def check(self, netlist, library):
        got = estimate_parasitics(netlist, library)
        want = reference.extract.estimate_parasitics(netlist, library)
        assert layout_bits(got) == layout_bits(want)
        loads = estimate_loads(netlist, library)
        assert list(loads) == want.names
        assert [load.hex() for load in loads.values()] == \
            [p.total_cap_ff.hex() for p in want.values()]

    @pytest.mark.parametrize("design", sorted(DESIGNS))
    def test_match_per_net_oracle_before_and_after_sizing(self, library,
                                                          design):
        netlist = DESIGNS[design]()
        attach_macros(netlist, library)
        netlist.bind(library)
        nets = netlist.nets.values()
        assert any(not net.sinks for net in nets)
        assert any(net.is_primary_input for net in nets)
        assert any(net.is_primary_output for net in nets)
        self.check(netlist, library)
        size_for_target(netlist, library, FlowConfig().target_period_ps)
        self.check(netlist, library)

    def test_views_hold_python_scalars(self, library):
        netlist = DESIGNS["rv8"]()
        netlist.bind(library)
        extraction = estimate_parasitics(netlist, library)
        p = extraction[next(n for n, net in netlist.nets.items()
                            if net.sinks)]
        assert type(p.wire_cap_ff) is float and type(p.via_count) is int
        assert all(type(d) is float for d in p.sink_elmore_ps.values())
        again = reference.extract.from_nets(extraction.values())
        assert layout_bits(again) == layout_bits(extraction)


class TestGathersOnAStaleExtraction:
    @pytest.fixture(scope="class")
    def stale(self):
        """A routed rv8 and its extraction, then two hold buffers."""
        art = run_flow(DESIGNS["rv8"], FlowConfig(), return_artifacts=True,
                       stop_after="extraction")
        netlist, extraction = art.netlist, art.extraction
        flops = [inst for inst in netlist.instances.values()
                 if "D" in inst.connections][:2]
        first_d = flops[0].connections["D"]
        for k, inst in enumerate(flops):
            old_net = inst.connections["D"]
            netlist.add_net(f"holdnet_{k}")
            netlist.add_instance(f"holdbuf_{k}", "BUFD1",
                                 {"A": old_net, "Z": f"holdnet_{k}"})
            inst.connections["D"] = f"holdnet_{k}"
        netlist.bind(art.library)
        # The moved D pin's new net is absent; its old net still lists
        # it and lacks the buffer input now on that net.
        assert "holdnet_0" not in extraction
        assert (flops[0].name, "D") in extraction[first_d].sink_elmore_ps
        assert ("holdbuf_0", "A") not in \
            extraction[first_d].sink_elmore_ps
        return netlist, art.library, extraction

    @pytest.fixture(scope="class")
    def factors(self, stale):
        netlist = stale[0]
        rng = np.random.default_rng(0)
        return rng.uniform(0.8, 1.25, size=(3, len(netlist.nets)))

    @pytest.mark.parametrize("scaled", [False, True])
    def test_timing_matches_dict_walk(self, stale, factors, scaled,
                                      monkeypatch):
        netlist, library, extraction = stale
        rows = factors if scaled else None

        def timing():
            return analyze_timing_rows(netlist, library, extraction, rows,
                                       400.0)

        got = timing()
        monkeypatch.setattr("repro.sta.sta._Parasitics",
                            reference.sta.Parasitics)
        assert repr(got) == repr(timing())

    @pytest.mark.parametrize("scaled", [False, True])
    def test_power_matches_dict_walk(self, stale, factors, scaled,
                                     monkeypatch):
        netlist, library, extraction = stale
        rows = factors if scaled else None
        freqs = [1.5, 2.0, 2.5] if scaled else [1.5]

        def power():
            return analyze_power_rows(netlist, library, extraction, rows,
                                      freqs)

        got = power()
        monkeypatch.setattr("repro.power.power._power_sums",
                            reference.power.power_sums)
        assert repr(got) == repr(power())

    def test_elmore_matches_per_net_walk(self, stale):
        """The extraction's own sink table reads its delays as they
        are; a reordered table, one with a sink moved to the net before
        it (same flat sink order) and the changed netlist's are matched
        by name."""
        netlist, library, extraction = stale
        graph = TimingGraph(netlist, library)
        own = (list(extraction.names), list(extraction.sinks),
               extraction.sink_net.copy())
        reordered = (own[0], own[1][::-1], own[2][::-1])
        moved = own[2].copy()
        first = np.flatnonzero(np.diff(moved))[0] + 1
        moved[first] = moved[first - 1]
        current = (graph.net_names, graph.sinks, graph.sink_net)
        for names, sinks, sink_net in (own, reordered, (own[0], own[1], moved),
                                       current):
            want = [extraction[names[k]].elmore_to(inst, pin)
                    if names[k] in extraction else 0.0
                    for (inst, pin), k in zip(sinks, sink_net.tolist())]
            got = extraction.elmore_ps(names, sinks, sink_net)
            assert hexes(got) == [w.hex() for w in want]

    def test_wire_factors_match_per_net_back_fraction(self, stale):
        netlist, library, extraction = stale
        model = VariationModel.for_arch("ffet")
        samples = [model.draw(7, i) for i in range(3)]
        pitch = library.tech.rules.track_pitch_nm
        fraction = np.array([extraction[n].back_fraction
                             if n in extraction else 0.0
                             for n in netlist.nets])
        assert fraction.any()
        front = np.array([[s.front_rc_scale] for s in samples])
        back = np.array([[s.back_rc_scale * overlay_rc_factor(s, pitch)]
                         for s in samples])
        want = front + fraction * (back - front)
        got = wire_factors(netlist, extraction, samples, pitch)
        assert got.tobytes() == want.tobytes()
