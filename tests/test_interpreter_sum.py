"""Flow results do not depend on how the interpreter sums floats.

CPython 3.12 made ``sum()`` over floats a compensated (Neumaier) sum;
3.10 and 3.11 add left to right.  CI checks both against one golden
file, and the stage store's keys do not name the interpreter.  Each run
here patches ``builtins.sum`` with one of the two, so the check holds on
any interpreter: no result path may sum floats with ``builtins.sum``.
The report totals (Monte-Carlo and DoE means, critical-path delays,
library and track averages, BEOL cost) follow the same rule.
"""

from __future__ import annotations

import builtins
import math
from types import SimpleNamespace

import numpy as np
import pytest

from repro.analysis import beol_cost, sample_stats
from repro.core import FlowConfig, Tracer
from repro.core.cache import result_to_payload
from repro.core.doe import DoeCloud
from repro.core.flow import prepare_library, run_flow
from repro.pnr.routing.grid import RoutingGrid
from repro.pnr.routing.layers import assign_layers
from repro.pnr.routing.router import GlobalRouter, NetSpec
from repro.pnr.routing.tracks import assign_tracks
from repro.power import propagate_activities
from repro.sta import PathStage, TimingPath
from repro.synth import RiscvConfig, generate_riscv_core, generate_rv16_tile
from repro.tech import Side, make_ffet_node

#: Added left to right this is 0.0; Python 3.12's sum() returns 1.0.
CANCELLING = [1e16, 1.0, -1e16]


def left_to_right_sum(iterable, /, start=0):
    """``sum()`` as Python 3.10 and 3.11 compute it."""
    total = start
    for item in iterable:
        total = total + item
    return total


def compensated_sum(iterable, /, start=0):
    """``sum()`` as Python 3.12 computes it over floats (Neumaier)."""
    total, compensation = start, 0.0
    for item in iterable:
        if type(item) is float and type(total) in (int, float):
            t = total + item
            if abs(total) >= abs(item):
                compensation += (total - t) + item
            else:
                compensation += (item - t) + total
            total = t
        else:
            total = total + item
    if compensation and math.isfinite(compensation):
        total += compensation
    return total


def no_float_sum(iterable, /, start=0):
    """``sum()`` that refuses floats, to catch a report total using it."""
    total = start
    for item in iterable:
        assert not isinstance(item, float), "builtins.sum over floats"
        total = total + item
    return total


def rv8():
    return generate_riscv_core(RiscvConfig(xlen=8, nregs=8, name="rv8"))


def rv8_tile():
    return generate_rv16_tile(xlen=8, nregs=8, words=16, name="rv8_tile")


def run_under(summer, factory, config, tracer=None):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(builtins, "sum", summer)
        return run_flow(factory, config, return_artifacts=True,
                        tracer=tracer)


def test_the_two_sums_differ():
    values = [0.1] * 10
    assert left_to_right_sum(values) != compensated_sum(values)
    assert compensated_sum(values) == math.fsum(values)


def test_the_two_sums_differ_on_cancellation():
    assert left_to_right_sum(CANCELLING) == 0.0
    assert compensated_sum(CANCELLING) == 1.0


def cancelling_totals():
    """Each report total over the cancelling values, as the code sums it."""
    stats = sample_stats(CANCELLING)
    cloud = DoeCloud(
        backside_fraction=0.5, label="FP0.5BP0.5", ellipse=None,
        results=tuple(SimpleNamespace(achieved_frequency_ghz=v,
                                      total_power_mw=v)
                      for v in CANCELLING))
    path = TimingPath(
        endpoint="q", slack_ps=0.0, arrival_ps=0.0,
        stages=tuple(PathStage(instance=f"u{i}", cell="INV", from_pin="A",
                               net=f"n{i}", cell_delay_ps=v,
                               wire_delay_ps=v, load_ff=0.0)
                     for i, v in enumerate(CANCELLING)))
    return {"stats.mean": stats.mean, "stats.std": stats.std,
            "cloud.mean_frequency_ghz": cloud.mean_frequency_ghz,
            "cloud.mean_power_mw": cloud.mean_power_mw,
            "path.cell_delay_ps": path.cell_delay_ps,
            "path.wire_delay_ps": path.wire_delay_ps}


@pytest.mark.parametrize("summer", [left_to_right_sum, compensated_sum])
def test_report_totals_add_left_to_right(summer):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(builtins, "sum", summer)
        totals = cancelling_totals()
    mean = left_to_right_sum(CANCELLING, 0.0) / len(CANCELLING)
    std = math.sqrt(left_to_right_sum(
        ((v - mean) ** 2 for v in CANCELLING), 0.0) / (len(CANCELLING) - 1))
    assert mean == 0.0
    assert totals == {"stats.mean": mean, "stats.std": std,
                      "cloud.mean_frequency_ghz": mean,
                      "cloud.mean_power_mw": mean,
                      "path.cell_delay_ps": 0.0, "path.wire_delay_ps": 0.0}


def test_report_averages_do_not_use_builtins_sum():
    library = prepare_library(FlowConfig())
    grid = RoutingGrid(side=Side.FRONT, cols=8, rows=8, gcell_nm=480.0,
                       layers=make_ffet_node().routing_layers(Side.FRONT))
    grid.cap_h = np.full((8, 7), 20.0)
    grid.cap_v = np.full((7, 8), 20.0)
    routed = GlobalRouter(grid).route_all(
        [NetSpec(f"n{i}", Side.FRONT, [(0, i), (7, 7 - i)]) for i in range(8)])
    layers = assign_layers(routed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(builtins, "sum", no_float_sum)
        cancelling_totals()
        library.mean_pin_density(Side.FRONT)
        library.mean_pin_density(Side.BACK)
        beol_cost(make_ffet_node(12, 12))
        beol_cost(make_ffet_node(12, 0))
        tracks = assign_tracks(routed, layers)
    assert tracks.stats


@pytest.mark.parametrize("factory, config", [
    (rv8_tile, FlowConfig(seed=3, utilization=0.6)),
    (rv8, FlowConfig(refine_placement=True)),
], ids=["rv8_tile", "rv8_refined"])
def test_flow_does_not_use_builtins_sum(factory, config):
    """No stage sums floats with ``builtins.sum``: among others the
    min-cut placer's weights, the cell area, the floorplan's macro
    areas (rv8_tile has macros) and the refinement's HPWL cost."""
    art = run_under(no_float_sum, factory, config)
    assert art.result.valid


def test_rv8_tile_payload_is_independent_of_sum():
    config = FlowConfig(seed=3, utilization=0.6)
    plain = run_under(left_to_right_sum, rv8_tile, config)
    compensated = run_under(compensated_sum, rv8_tile, config)
    assert result_to_payload(plain.result) == \
        result_to_payload(compensated.result)


def test_rv8_grids_and_parasitics_are_independent_of_sum():
    traces = Tracer(), Tracer()
    plain = run_under(left_to_right_sum, rv8, FlowConfig(), traces[0])
    compensated = run_under(compensated_sum, rv8, FlowConfig(), traces[1])
    for side, routed in plain.routing_results.items():
        other = compensated.routing_results[side].grid
        assert routed.grid.cap_h.tobytes() == other.cap_h.tobytes(), side
        assert routed.grid.cap_v.tobytes() == other.cap_v.tobytes(), side
    assert plain.extraction == compensated.extraction
    # The extraction's trace gauge is a float total too.
    gauges = [t.gauges["extract.total_wire_cap_ff"] for t in traces]
    assert gauges[0].hex() == gauges[1].hex()


def test_rv8_activities_are_independent_of_sum():
    library = prepare_library(FlowConfig())
    densities = []
    for summer in (left_to_right_sum, compensated_sum):
        netlist = rv8()
        netlist.bind(library)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(builtins, "sum", summer)
            densities.append(propagate_activities(netlist, library))
    assert densities[0] == densities[1]


def test_dual_cts_payload_is_independent_of_sum():
    config = FlowConfig(cts_mode="dual")
    plain = run_under(left_to_right_sum, rv8, config)
    compensated = run_under(compensated_sum, rv8, config)
    assert result_to_payload(plain.result) == \
        result_to_payload(compensated.result)
    assert plain.cts_report == compensated.cts_report
