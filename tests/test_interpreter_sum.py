"""Flow results do not depend on how the interpreter sums floats.

CPython 3.12 made ``sum()`` over floats a compensated (Neumaier) sum;
3.10 and 3.11 add left to right.  CI checks both against one golden
file, and the stage store's keys do not name the interpreter.  Each run
here patches ``builtins.sum`` with one of the two, so the check holds on
any interpreter: no result path may sum floats with ``builtins.sum``.
"""

from __future__ import annotations

import builtins
import math

import pytest

from repro.core import FlowConfig, Tracer
from repro.core.cache import result_to_payload
from repro.core.flow import prepare_library, run_flow
from repro.power import propagate_activities
from repro.synth import RiscvConfig, generate_riscv_core, generate_rv16_tile


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
