"""Static timing analysis tests."""

import pytest

from repro.extract import estimate_parasitics
from repro.netlist import Netlist
from repro.sta import analyze_timing

from .reference import extract as reference


def pipeline_netlist(depth=6):
    """DFF -> INV chain -> DFF."""
    nl = Netlist("pipe")
    nl.add_net("clk", primary_input=True, clock=True)
    nl.add_instance("ff_in", "DFFD1", {"D": "dloop", "CK": "clk", "Q": "n0"})
    prev = "n0"
    for i in range(depth):
        nl.add_instance(f"g{i}", "INVD1", {"A": prev, "ZN": f"n{i + 1}"})
        prev = f"n{i + 1}"
    nl.add_instance("ff_out", "DFFD1", {"D": prev, "CK": "clk", "Q": "dloop"})
    return nl


class TestSetupAnalysis:
    def test_loose_period_met(self, ffet_lib):
        nl = pipeline_netlist()
        nl.bind(ffet_lib)
        extraction = estimate_parasitics(nl, ffet_lib)
        report = analyze_timing(nl, ffet_lib, extraction, period_ps=5000.0)
        assert report.met
        assert report.wns_ps > 0

    def test_tight_period_fails(self, ffet_lib):
        nl = pipeline_netlist(depth=30)
        nl.bind(ffet_lib)
        extraction = estimate_parasitics(nl, ffet_lib)
        report = analyze_timing(nl, ffet_lib, extraction, period_ps=10.0)
        assert not report.met
        assert report.tns_ps < 0

    def test_achieved_period_consistent(self, ffet_lib):
        nl = pipeline_netlist()
        nl.bind(ffet_lib)
        extraction = estimate_parasitics(nl, ffet_lib)
        r1 = analyze_timing(nl, ffet_lib, extraction, period_ps=100.0)
        r2 = analyze_timing(nl, ffet_lib, extraction, period_ps=400.0)
        # Arrival times do not depend on the period, so achieved period
        # (period - wns) must be identical.
        assert r1.achieved_period_ps == pytest.approx(r2.achieved_period_ps)

    def test_deeper_pipeline_slower(self, ffet_lib):
        results = []
        for depth in (4, 12):
            nl = pipeline_netlist(depth)
            nl.bind(ffet_lib)
            extraction = estimate_parasitics(nl, ffet_lib)
            results.append(
                analyze_timing(nl, ffet_lib, extraction, 1000.0)
            )
        assert results[1].achieved_period_ps > results[0].achieved_period_ps

    def test_critical_path_traced(self, ffet_lib):
        nl = pipeline_netlist(depth=5)
        nl.bind(ffet_lib)
        extraction = estimate_parasitics(nl, ffet_lib)
        report = analyze_timing(nl, ffet_lib, extraction, 1000.0)
        assert report.worst_endpoint in ("ff_in", "ff_out")
        assert any("g4" in hop or "g0" in hop for hop in report.critical_path)

    def test_no_endpoints_rejected(self, ffet_lib):
        nl = Netlist("comb")
        nl.add_net("a", primary_input=True)
        nl.add_instance("g", "INVD1", {"A": "a", "ZN": "z"})
        nl.bind(ffet_lib)
        extraction = estimate_parasitics(nl, ffet_lib)
        with pytest.raises(ValueError):
            analyze_timing(nl, ffet_lib, extraction, 1000.0)

    def test_primary_output_endpoint(self, ffet_lib):
        nl = Netlist("comb")
        nl.add_net("a", primary_input=True)
        nl.add_net("z", primary_output=True)
        nl.add_instance("g", "INVD1", {"A": "a", "ZN": "z"})
        nl.bind(ffet_lib)
        extraction = estimate_parasitics(nl, ffet_lib)
        report = analyze_timing(nl, ffet_lib, extraction, 1000.0)
        assert report.worst_endpoint == "PO:z"


class TestUnateness:
    def test_inverter_chain_alternates_edges(self, ffet_lib):
        """Through 2 inverters the gap rise-vs-fall should persist,
        demonstrating edge-aware propagation (not worst-casing)."""
        nl = pipeline_netlist(depth=2)
        nl.bind(ffet_lib)
        extraction = estimate_parasitics(nl, ffet_lib)
        report = analyze_timing(nl, ffet_lib, extraction, 1000.0)
        # Sanity: arrival exists and is positive.
        assert report.worst_arrival_ps > 0

    def test_worst_casing_would_be_slower(self, ffet_lib):
        """Edge-aware STA gives arrivals <= taking max(rise, fall) at
        every stage."""
        nl = pipeline_netlist(depth=10)
        nl.bind(ffet_lib)
        extraction = estimate_parasitics(nl, ffet_lib)
        report = analyze_timing(nl, ffet_lib, extraction, 1000.0)

        # Manual worst-case estimate: every stage takes the max delay.
        arc = ffet_lib["INVD1"].arcs[0]
        load = extraction["n1"].total_cap_ff
        stage_worst = arc.worst_delay(10.0, load)
        assert report.worst_arrival_ps < 10 * stage_worst * 1.5


class TestClockTreeTiming:
    def test_skew_and_insertion_reported(self, ffet_lib, mult4):
        from repro.pnr import (
            FloorplanSpec, place, plan_floor, plan_power,
            synthesize_clock_tree,
        )

        die = plan_floor(mult4, ffet_lib, FloorplanSpec(0.7))
        pp = plan_power(ffet_lib.tech, die)
        placement = place(mult4, ffet_lib, die, pp)
        synthesize_clock_tree(mult4, ffet_lib, placement, "clk")
        extraction = reference.estimate_parasitics(mult4, ffet_lib,
                                                   placement)
        report = analyze_timing(mult4, ffet_lib, extraction, 1000.0)
        assert report.insertion_delay_ps > 0   # buffers add delay
        assert report.clock_skew_ps >= 0


class TestCorners:
    def test_corner_ordering(self, ffet_lib):
        from repro.sta import analyze_corners, worst_corner
        from repro.extract import estimate_parasitics

        nl = pipeline_netlist(depth=12)
        nl.bind(ffet_lib)
        extraction = estimate_parasitics(nl, ffet_lib)
        reports = analyze_corners(nl, ffet_lib, extraction, 500.0)
        assert set(reports) == {"ss_0p63v_125c", "tt_0p70v_25c",
                                "ff_0p77v_m40c"}
        ss = reports["ss_0p63v_125c"]
        tt = reports["tt_0p70v_25c"]
        ff = reports["ff_0p77v_m40c"]
        assert ss.worst_arrival_ps > tt.worst_arrival_ps > \
            ff.worst_arrival_ps
        name, worst = worst_corner(reports)
        assert name == "ss_0p63v_125c"
        assert worst.wns_ps <= tt.wns_ps

    def test_typical_matches_base(self, ffet_lib):
        from repro.sta import analyze_corners
        from repro.extract import estimate_parasitics

        nl = pipeline_netlist(depth=6)
        nl.bind(ffet_lib)
        extraction = estimate_parasitics(nl, ffet_lib)
        base = analyze_timing(nl, ffet_lib, extraction, 1000.0)
        tt = analyze_corners(nl, ffet_lib, extraction, 1000.0)[
            "tt_0p70v_25c"]
        assert tt.worst_arrival_ps == pytest.approx(base.worst_arrival_ps)

    def test_scale_extraction(self, ffet_lib):
        from .reference.sta import scale_extraction
        from repro.extract import estimate_parasitics

        nl = pipeline_netlist(depth=4)
        nl.bind(ffet_lib)
        extraction = estimate_parasitics(nl, ffet_lib)
        scaled = scale_extraction(extraction, 1.5)
        for name in extraction:
            assert scaled[name].wire_cap_ff == pytest.approx(
                extraction[name].wire_cap_ff * 1.5)
            assert scaled[name].pin_cap_ff == pytest.approx(
                extraction[name].pin_cap_ff)
