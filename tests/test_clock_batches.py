"""The clock tree on the timing graph's level batches, and hold's min
pass over the same batches.

Setup times the clock tree with the level-batched engine that times
the data logic, and hold runs one min-delay pass over those batches.
Both agree bit for bit with the scalar oracles in
``tests/reference/sta.py``: the depth-first clock walk
(:func:`reference.sta.clock_arrivals`, swapped in for
``repro.sta.sta._clock_arrivals``) and the dict-based
:func:`reference.sta.analyze_hold`.  Every float of a report is
compared through ``float.hex``.
"""

from __future__ import annotations

import copy
import dataclasses

import numpy as np
import pytest

from repro.core import FlowConfig, run_flow
from repro.sta import (
    TimingGraph,
    analyze_corners,
    analyze_hold,
    analyze_timing,
    analyze_timing_rows,
    fix_hold,
)
from repro.synth import (
    RiscvConfig,
    generate_riscv_core,
    generate_rv16_cache,
    generate_rv16_sram,
    generate_rv16_tile,
)

from . import reference


def _rv8():
    return generate_riscv_core(RiscvConfig(xlen=8, nregs=8, name="rv8"))


#: name -> (netlist factory, config).  Every design but rv16_sram is
#: also timed for setup.
DESIGNS = {
    "rv8": (_rv8, FlowConfig()),
    "rv8_sram": (lambda: generate_rv16_sram(
        xlen=8, nregs=8, words=16, name="rv8_sram"), FlowConfig()),
    "rv8_tile_dual_cts": (lambda: generate_rv16_tile(
        xlen=8, nregs=8, words=16, name="rv8_tile"),
        FlowConfig(cts_mode="dual")),
    "rv16": (lambda: generate_riscv_core(
        RiscvConfig(xlen=16, nregs=16, name="rv16")), FlowConfig()),
    "rv8_cfet": (_rv8, FlowConfig(arch="cfet", back_layers=0,
                                  backside_pin_fraction=0.0)),
    "rv8_cache_fm3bm3": (lambda: generate_rv16_cache(
        xlen=8, nregs=8, words=16, cache_words=8, name="rv8_cache"),
        FlowConfig(front_layers=3, back_layers=3)),
    "rv16_sram": (generate_rv16_sram, FlowConfig()),
}
SETUP_DESIGNS = sorted(set(DESIGNS) - {"rv16_sram"})


@pytest.fixture(scope="module")
def routed():
    """Routed artifacts per design, each flow run once per module."""
    done = {}

    def get(name):
        if name not in done:
            factory, config = DESIGNS[name]
            done[name] = run_flow(factory, config, return_artifacts=True)
        return done[name]
    return get


def hexed(value):
    """A report with every float spelled as ``float.hex``."""
    if dataclasses.is_dataclass(value):
        return {f.name: hexed(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return [hexed(v) for v in value]
    if isinstance(value, dict):
        return {k: hexed(v) for k, v in value.items()}
    return value


def _with_walk(monkeypatch, timing):
    """``timing()`` with the clock tree timed by the scalar walk."""
    with monkeypatch.context() as patched:
        patched.setattr("repro.sta.sta._clock_arrivals",
                        reference.sta.clock_arrivals)
        return timing()


@pytest.mark.parametrize("name", SETUP_DESIGNS)
def test_clock_batches_match_walk(routed, name, monkeypatch):
    """Signoff, 7 random wire-RC rows and the 3 corners report the same
    bits, critical paths included, with the clock tree timed either
    way."""
    art = routed(name)
    netlist, library, extraction = art.netlist, art.library, art.extraction
    period = DESIGNS[name][1].target_period_ps
    rows = np.random.default_rng(7).uniform(0.8, 1.25,
                                            size=(7, len(netlist.nets)))
    runs = {
        "signoff": lambda: analyze_timing(netlist, library, extraction,
                                          period),
        "rows": lambda: analyze_timing_rows(netlist, library, extraction,
                                            rows, period),
        "corners": lambda: analyze_corners(netlist, library, extraction,
                                           period),
    }
    for run in runs.values():
        got = run()
        assert hexed(got) == hexed(_with_walk(monkeypatch, run))
    report = runs["signoff"]()
    assert report.insertion_delay_ps > 0 and report.critical_path


def test_missing_clock_times_no_tree(routed, monkeypatch):
    """A clock the netlist lacks reaches no cell: zero insertion delay
    and skew, either way."""
    art = routed("rv8")

    def run():
        return analyze_timing(art.netlist, art.library, art.extraction,
                              500.0, clock="no_such_clock")
    got = run()
    assert hexed(got) == hexed(_with_walk(monkeypatch, run))
    assert got.insertion_delay_ps == got.clock_skew_ps == 0.0


@pytest.mark.parametrize("input_delay", [None, 0, 5])
@pytest.mark.parametrize("name", sorted(DESIGNS))
def test_hold_matches_oracle(routed, name, input_delay):
    art = routed(name)
    args = (art.netlist, art.library, art.extraction)
    got = analyze_hold(*args, input_delay_ps=input_delay)
    want = reference.sta.analyze_hold(*args, input_delay_ps=input_delay)
    assert hexed(got) == hexed(want)


@pytest.mark.parametrize("name", ["rv16", "rv8_tile_dual_cts"])
def test_fix_hold_matches_oracle(routed, name, monkeypatch):
    """The same buffers, inserted in the same order, and the same final
    report as ``fix_hold`` driven by the oracle's hold checks."""
    art = routed(name)

    def fixed():
        netlist = copy.deepcopy(art.netlist)
        report = fix_hold(netlist, art.library, art.extraction)
        return list(netlist.instances), hexed(report)

    insts, report = fixed()
    with monkeypatch.context() as patched:
        patched.setattr("repro.sta.hold.analyze_hold",
                        reference.sta.analyze_hold)
        assert (insts, report) == fixed()
    assert len(insts) > len(art.netlist.instances)


def test_clock_and_data_batches_partition_the_cells(routed):
    """Every combinational cell sits in exactly one batch, the clock
    tree's buffers in the clock batches, and every flop's CK is the
    clock pin the graph records for it."""
    art = routed("rv8_tile_dual_cts")
    graph = TimingGraph(art.netlist, art.library)
    tree = {graph.comb_names[i] for lvl in graph.clock_levels
            for i in lvl.rows.tolist()}
    data = {graph.comb_names[i] for lvl in graph.levels
            for i in lvl.rows.tolist()}
    assert not tree & data
    assert tree | data == set(graph.comb_names)
    assert tree == {n for n in graph.comb_names if n.startswith("ctsbuf_")}
    flops = [n for n in graph.seq_names
             if art.library[art.netlist.instances[n].master].function
             == "DFF"]
    pins = {graph.sinks[s] for s in graph.ck_sinks.tolist()}
    assert {(n, "CK") for n in flops} <= pins
