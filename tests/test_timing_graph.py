"""The caller-owned STA timing graph, and hold checks on its endpoints.

A :class:`~repro.sta.TimingGraph` is structure only: passing one to
``analyze_timing`` must never change a report, however many
drive-strength swaps it has absorbed since it was built.  Each owner
(a sizing run, a Monte-Carlo study, a corner sweep) builds exactly one.
Hold analysis reads the same launch arcs and endpoints as setup, so
hard macros launch and capture there too.
"""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sta.hold as hold
import repro.synth.sizing as sizing
from repro import build_library, make_ffet_node
from repro.core import FlowConfig, run_flow
from repro.extract import estimate_parasitics
from repro.macros import attach_macros
from repro.netlist import Netlist
from repro.sta import (
    TimingGraph,
    analyze_corners,
    analyze_hold,
    analyze_timing,
    fix_hold,
)
from repro.synth import (
    RiscvConfig,
    generate_counter,
    generate_riscv_core,
    generate_rv16_sram,
    generate_rv16_tile,
    size_for_target,
)
from repro.variation import (
    SAMPLE_BLOCK,
    VariationModel,
    nominal_bundle,
    run_samples,
)

DESIGNS = {
    "rv8": lambda: generate_riscv_core(
        RiscvConfig(xlen=8, nregs=8, name="rv8")),
    "rv8_sram": lambda: generate_rv16_sram(
        xlen=8, nregs=8, words=16, name="rv8_sram"),
    "rv8_tile": lambda: generate_rv16_tile(
        xlen=8, nregs=8, words=16, name="rv8_tile"),
}


@pytest.fixture(scope="module")
def lib():
    """A private library: attach_macros adds SRAM masters to it."""
    return build_library(make_ffet_node())


def bound(name: str, library):
    netlist = DESIGNS[name]()
    attach_macros(netlist, library)
    netlist.bind(library)
    return netlist


@pytest.fixture()
def builds(monkeypatch):
    """Counts every structural build of any TimingGraph."""
    count = [0]
    real = TimingGraph._build

    def counting(self):
        count[0] += 1
        real(self)

    monkeypatch.setattr(TimingGraph, "_build", counting)
    return count


@given(design=st.sampled_from(["rv8", "rv8_sram"]),
       seed=st.integers(0, 2**16), rounds=st.integers(1, 3),
       swaps=st.integers(1, 60))
@settings(max_examples=6, deadline=None)
def test_shared_graph_never_changes_a_report(lib, design, seed, rounds,
                                             swaps):
    """Reports from one graph patched across random drive swaps equal,
    field for field, those of a fresh graph and of no graph at all."""
    netlist = bound(design, lib)
    rng = random.Random(seed)
    graph = TimingGraph(netlist, lib)
    for _ in range(rounds + 1):
        extraction = estimate_parasitics(netlist, lib)
        shared = analyze_timing(netlist, lib, extraction, 250.0,
                                graph=graph)
        fresh = analyze_timing(netlist, lib, extraction, 250.0,
                               graph=TimingGraph(netlist, lib))
        alone = analyze_timing(netlist, lib, extraction, 250.0)
        assert dataclasses.asdict(shared) == dataclasses.asdict(fresh) \
            == dataclasses.asdict(alone)
        # Swap random cells one drive step up, and always one flop, so
        # both the level rows and the launch arcs get patched.
        swappable = [i for i in netlist.instances.values()
                     if lib.next_drive_up(lib[i.master]) is not None]
        flops = [i for i in swappable if lib[i.master].is_sequential]
        victims = rng.sample(swappable, min(swaps, len(swappable)))
        for inst in victims + rng.sample(flops, min(1, len(flops))):
            stronger = lib.next_drive_up(lib[inst.master])
            if stronger is not None:
                inst.master = stronger.name


class TestOneGraphPerOwner:
    def test_sizing_builds_one_graph_for_all_its_passes(self, lib, builds,
                                                        monkeypatch):
        passes = [0]
        real = sizing.analyze_timing

        def counted(*args, **kwargs):
            passes[0] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(sizing, "analyze_timing", counted)
        size_for_target(bound("rv8", lib), lib,
                        FlowConfig().target_period_ps)
        assert passes[0] == 9
        assert builds[0] == 1

    def test_monte_carlo_chunk_builds_one_graph(self, builds):
        config = FlowConfig(utilization=0.5)
        bundle = nominal_bundle(lambda: generate_counter(8), config)
        builds[0] = 0
        good, bad = run_samples(bundle, config,
                                VariationModel.for_arch("ffet"),
                                SAMPLE_BLOCK + 1, seed=0)
        assert len(good) == SAMPLE_BLOCK + 1 and not bad
        assert builds[0] == 1

    def test_hold_check_and_fix_hold_share_the_callers_graph(
            self, builds, monkeypatch):
        """The caller's hold check and ``fix_hold``'s first check, on
        the unchanged netlist, build one graph between them; each later
        check follows a round of buffers and rebuilds it once."""
        art = run_flow(DESIGNS["rv8_tile"], FlowConfig(seed=0),
                       return_artifacts=True)
        args = (art.netlist, art.library, art.extraction)
        builds[0] = 0
        graph = TimingGraph(art.netlist, art.library)
        before = analyze_hold(*args, graph=graph)
        seen = []
        real = hold.analyze_hold

        def counted(*a, **k):
            report = real(*a, **k)
            seen.append(builds[0])
            return report

        monkeypatch.setattr(hold, "analyze_hold", counted)
        fixed = fix_hold(*args, placement=art.placement, graph=graph)
        assert not before.met and fixed.met and len(seen) >= 2
        assert seen == list(range(1, len(seen) + 1))

    def test_corner_sweep_builds_one_graph(self, lib, builds):
        netlist = bound("rv8", lib)
        extraction = estimate_parasitics(netlist, lib)
        reports = analyze_corners(netlist, lib, extraction, 1000.0)
        assert len(reports) == 3
        assert builds[0] == 1


class TestGraphMisuse:
    def test_graph_of_another_netlist_is_rejected(self, lib):
        netlist, other = bound("rv8", lib), bound("rv8", lib)
        extraction = estimate_parasitics(netlist, lib)
        with pytest.raises(ValueError, match="another netlist"):
            analyze_timing(netlist, lib, extraction, 500.0,
                           graph=TimingGraph(other, lib))

    def test_graph_of_another_library_is_rejected(self, lib, ffet_lib):
        netlist = bound("rv8", lib)
        extraction = estimate_parasitics(netlist, lib)
        with pytest.raises(ValueError, match="another netlist or library"):
            analyze_timing(netlist, lib, extraction, 500.0,
                           graph=TimingGraph(netlist, ffet_lib))

    def test_graph_of_another_clock_is_rejected(self, lib):
        netlist = bound("rv8", lib)
        extraction = estimate_parasitics(netlist, lib)
        with pytest.raises(ValueError, match="clock 'clk2', not 'clk'"):
            analyze_timing(netlist, lib, extraction, 500.0,
                           graph=TimingGraph(netlist, lib, clock="clk2"))

    def test_combinational_loop_is_rejected(self, lib):
        netlist = Netlist("ring")
        netlist.add_net("a", primary_input=True)
        netlist.add_instance("u0", "AND2D1", {"A": "a", "B": "y", "Z": "x"})
        netlist.add_instance("u1", "INVD1", {"A": "x", "ZN": "y"})
        netlist.bind(lib)
        with pytest.raises(ValueError, match="combinational loop"):
            TimingGraph(netlist, lib)

    @pytest.mark.parametrize("check", [analyze_hold, fix_hold])
    def test_hold_rejects_a_graph_setup_rejects(self, lib, ffet_lib, check):
        netlist, other = bound("rv8", lib), bound("rv8", lib)
        extraction = estimate_parasitics(netlist, lib)
        for graph, match in (
                (TimingGraph(other, lib), "another netlist"),
                (TimingGraph(netlist, ffet_lib), "another netlist or library"),
                (TimingGraph(netlist, lib, clock="clk2"),
                 "clock 'clk2', not 'clk'")):
            with pytest.raises(ValueError, match=match):
                check(netlist, lib, extraction, graph=graph)


class TestHoldOnMacros:
    def test_macro_inputs_are_hold_endpoints(self):
        art = run_flow(DESIGNS["rv8_sram"], FlowConfig(seed=0),
                       return_artifacts=True)
        seq = [i for i in art.netlist.instances.values()
               if art.library[i.master].is_sequential]
        macros = [i for i in seq if art.library[i.master].function != "DFF"]
        macro_pins = sum(len(art.library[i.master].input_pins)
                         for i in macros)
        assert macros and macro_pins
        report = analyze_hold(art.netlist, art.library, art.extraction)
        assert report.endpoint_count == len(seq) - len(macros) + macro_pins
        assert report.met

    def test_fix_hold_buffers_each_violating_macro_pin(self):
        art = run_flow(DESIGNS["rv8_tile"], FlowConfig(seed=0),
                       return_artifacts=True)
        before = analyze_hold(art.netlist, art.library, art.extraction)
        macro_pins = [
            (inst, pin) for inst, pin in before.violating_endpoints
            if art.library[art.netlist.instances[inst].master].function
            != "DFF"]
        assert macro_pins, "no macro data pin violates hold"
        fixed = fix_hold(art.netlist, art.library, art.extraction,
                         placement=art.placement)
        assert fixed.met
        assert fixed.endpoint_count == before.endpoint_count
        for inst, pin in macro_pins:
            net = art.netlist.instances[inst].connections[pin]
            driver, _ = art.netlist.nets[net].driver
            assert driver.startswith("holdbuf_"), (inst, pin)
            assert art.placement.locations[driver] \
                == art.placement.locations[inst]
