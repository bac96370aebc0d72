"""The clock tree on the timing graph's level batches, and hold's min
pass over the same batches.

Setup times the clock tree with the level-batched engine that times
the data logic, and hold runs one min-delay pass over those batches.
Both agree bit for bit with the scalar oracles in
``tests/reference/sta.py``: the depth-first clock walk
(:func:`reference.sta.clock_arrivals`, swapped in for
``repro.sta.sta._clock_arrivals``) and the dict-based
:func:`reference.sta.analyze_hold`.  Every float of a report is
compared through ``float.hex``.  The batches themselves, gathered from
the graph's lane table and patched through ``refresh``, equal those the
per-lane builder (:func:`reference.sta.build_levels`) fills.
"""

from __future__ import annotations

import copy
import dataclasses
import random

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
from repro.sta.sta import _LevelBatch
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


def _oracle_graph(netlist, library, monkeypatch) -> TimingGraph:
    """A fresh graph whose batches the per-lane builder filled."""
    with monkeypatch.context() as patched:
        patched.setattr("repro.sta.sta.TimingGraph._build_levels",
                        reference.sta.build_levels)
        return TimingGraph(netlist, library)


def _tables(graph, gids, rows) -> list[int]:
    """The value grid each (group, row) ref names, by identity."""
    groups = graph.stack._groups
    return [id(groups[g].values[r])
            for g, r in zip(gids.tolist(), rows.tolist())]


def assert_same_batches(graph, oracle) -> None:
    """Every batch array, ``wire_sinks`` and ``row_pos`` equal; table
    refs name the same table on present lanes and read (0, 0) on
    padded ones."""
    assert np.array_equal(graph.wire_sinks, oracle.wire_sinks)
    assert np.array_equal(graph.row_pos, oracle.row_pos)
    assert graph.row_pos.dtype == oracle.row_pos.dtype
    ours = graph.clock_levels + graph.levels
    theirs = oracle.clock_levels + oracle.levels
    assert len(graph.clock_levels) == len(oracle.clock_levels)
    assert len(ours) == len(theirs)
    refs = (("gid_d", "row_d"), ("gid_t", "row_t"))
    for a, b in zip(ours, theirs):
        for name in _LevelBatch.__slots__:
            if any(name in pair for pair in refs):
                continue
            x, y = getattr(a, name), getattr(b, name)
            if isinstance(x, np.ndarray):
                assert x.dtype == y.dtype and np.array_equal(x, y), name
            else:
                assert x == y, name
        on = a.present
        for gid, row in refs:
            assert _tables(graph, getattr(a, gid)[on], getattr(a, row)[on]) \
                == _tables(oracle, getattr(b, gid)[on], getattr(b, row)[on])
            for lvl in (a, b):
                assert not getattr(lvl, gid)[~on].any()
                assert not getattr(lvl, row)[~on].any()


@pytest.mark.parametrize("name", sorted(DESIGNS))
def test_lane_table_batches_match_per_lane_builder(routed, name,
                                                   monkeypatch):
    """Fresh, and after two rounds of random drive swaps patched in
    through ``refresh``: the same batches as the per-lane builder's."""
    art = routed(name)
    netlist, library = copy.deepcopy(art.netlist), art.library
    graph = TimingGraph(netlist, library)
    assert_same_batches(graph, _oracle_graph(netlist, library, monkeypatch))
    rng = random.Random(name)
    rebuilt = []
    real = TimingGraph._build
    monkeypatch.setattr(TimingGraph, "_build", lambda self: (
        rebuilt.append(self is graph), real(self)))
    for _round in range(2):
        swappable = [i for i in netlist.instances.values()
                     if library.next_drive_up(library[i.master])]
        for inst in rng.sample(swappable, min(40, len(swappable))):
            inst.master = library.next_drive_up(library[inst.master]).name
        graph.refresh()
        assert not any(rebuilt), "a drive swap rebuilt the graph"
        assert_same_batches(graph,
                            _oracle_graph(netlist, library, monkeypatch))
