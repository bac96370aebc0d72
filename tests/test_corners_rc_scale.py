"""Corner machinery and RC scaling: the knobs the variation engine turns."""

from __future__ import annotations

import dataclasses
import math

import pytest
from hypothesis import given, strategies as st

from repro.extract.rc import NetParasitics
from repro.sta import (
    CORNERS,
    Corner,
    analyze_corners,
    analyze_timing,
    derate_report,
    worst_corner,
)
from repro.synth import generate_counter
from repro.core import FlowConfig
from repro.core.flow import run_flow

from .reference.extract import from_nets
from .reference.sta import scale_extraction


def _net(name="n", cap=2.0, res=0.5, elmore=3.0):
    return NetParasitics(
        net=name, wire_cap_ff=cap, wire_res_kohm=res, pin_cap_ff=1.0,
        sink_elmore_ps={("i", "A"): elmore}, wirelength_nm=1000.0)


@pytest.fixture(scope="module")
def artifacts():
    arts = run_flow(lambda: generate_counter(8),
                    FlowConfig(utilization=0.5), return_artifacts=True)
    return arts.result, arts.netlist, arts.library, arts.extraction


class TestCorners:
    def test_custom_corner_tuple_drives_the_report_keys(self, artifacts):
        _, netlist, library, extraction = artifacts
        mine = (Corner("hot", 1.3, 1.2), Corner("cold", 0.9, 0.95))
        reports = analyze_corners(netlist, library, extraction, 1000.0,
                                  corners=mine)
        assert set(reports) == {"hot", "cold"}
        # More derate -> strictly worse slack on a non-trivial design.
        assert reports["hot"].wns_ps < reports["cold"].wns_ps

    def test_default_corners_order_slow_to_fast(self, artifacts):
        _, netlist, library, extraction = artifacts
        reports = analyze_corners(netlist, library, extraction, 1000.0)
        slacks = [reports[c.name].wns_ps for c in CORNERS]
        assert slacks == sorted(slacks)

    def test_worst_corner_picks_minimum_slack(self, artifacts):
        _, netlist, library, extraction = artifacts
        reports = analyze_corners(netlist, library, extraction, 1000.0)
        name, report = worst_corner(reports)
        assert report.wns_ps == min(r.wns_ps for r in reports.values())
        assert name == "ss_0p63v_125c"

    def test_worst_corner_tie_breaks_by_insertion_order(self, artifacts):
        _, netlist, library, extraction = artifacts
        report = analyze_timing(netlist, library, extraction, 1000.0)
        tied = {"b_corner": report, "a_corner": report}
        name, picked = worst_corner(tied)
        # min() keeps the first key seen on ties: insertion order, not
        # alphabetical order.
        assert name == "b_corner"
        assert picked is report

    def test_corners_equal_scaled_copies_timed_one_at_a_time(self,
                                                            artifacts):
        """One three-row propagation reproduces, bit for bit, timing
        each corner's scaled copy of the extraction on its own."""
        _, netlist, library, extraction = artifacts

        def bits(report):
            return {k: v.hex() if isinstance(v, float) else v
                    for k, v in dataclasses.asdict(report).items()}

        reports = analyze_corners(netlist, library, extraction, 1000.0)
        for corner in CORNERS:
            alone = analyze_timing(
                netlist, library,
                scale_extraction(extraction, corner.wire_derate), 1000.0)
            assert bits(reports[corner.name]) == bits(derate_report(
                alone, corner.cell_derate, 1000.0))

    def test_unity_derate_report_is_identity(self, artifacts):
        _, netlist, library, extraction = artifacts
        report = analyze_timing(netlist, library, extraction, 1000.0)
        assert derate_report(report, 1.0, 1000.0) == report

    def test_derate_scales_arrival_not_period(self, artifacts):
        _, netlist, library, extraction = artifacts
        report = analyze_timing(netlist, library, extraction, 1000.0)
        slow = derate_report(report, 1.5, 1000.0)
        assert slow.worst_arrival_ps == pytest.approx(
            1.5 * report.worst_arrival_ps)
        assert slow.wns_ps == pytest.approx(
            1000.0 - 1.5 * (1000.0 - report.wns_ps))


class TestScaleExtraction:
    def test_unity_factor_is_a_no_op_identity(self):
        extraction = from_nets([_net()])
        assert scale_extraction(extraction, 1.0) is extraction

    def test_scaling_touches_wire_not_pins(self):
        extraction = from_nets([_net(cap=2.0, res=0.5, elmore=3.0)])
        out = scale_extraction(extraction, 2.0)
        scaled = out["n"]
        assert scaled.wire_cap_ff == 4.0
        assert scaled.wire_res_kohm == 1.0
        assert scaled.sink_elmore_ps[("i", "A")] == 6.0
        assert scaled.pin_cap_ff == extraction["n"].pin_cap_ff
        # Input untouched.
        assert extraction["n"].wire_cap_ff == 2.0

    @given(st.floats(0.5, 2.0), st.floats(0.5, 2.0))
    def test_scaling_composes_multiplicatively(self, a, b):
        extraction = from_nets([_net(cap=2.0, res=0.5, elmore=3.0)])
        once = scale_extraction(extraction, a * b)["n"]
        twice = scale_extraction(
            scale_extraction(extraction, a), b)["n"]
        assert math.isclose(once.wire_cap_ff, twice.wire_cap_ff,
                            rel_tol=1e-12)
        assert math.isclose(once.wire_res_kohm, twice.wire_res_kohm,
                            rel_tol=1e-12)
        assert math.isclose(once.sink_elmore_ps[("i", "A")],
                            twice.sink_elmore_ps[("i", "A")],
                            rel_tol=1e-12)
