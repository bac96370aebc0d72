"""IR-drop and hold-analysis tests."""

import pytest

from repro.extract import estimate_parasitics
from repro.pnr import (
    FloorplanSpec,
    analyze_ir_drop,
    place,
    plan_floor,
    plan_power,
    synthesize_clock_tree,
)
from repro.sta import analyze_hold, analyze_timing

from .reference import extract as reference


@pytest.fixture()
def implemented(ffet_lib, mult4):
    die = plan_floor(mult4, ffet_lib, FloorplanSpec(0.7))
    powerplan = plan_power(ffet_lib.tech, die)
    placement = place(mult4, ffet_lib, die, powerplan, seed=0)
    synthesize_clock_tree(mult4, ffet_lib, placement, "clk")
    from repro.pnr import legalize

    placement = legalize(placement, mult4, ffet_lib, powerplan)
    return die, powerplan, placement


class TestIrDrop:
    def test_report_fields(self, ffet_lib, mult4, implemented):
        _die, powerplan, placement = implemented
        report = analyze_ir_drop(mult4, ffet_lib, placement, powerplan,
                                 total_power_mw=1.0)
        assert report.net == "VSS"
        assert report.worst_drop_mv > 0
        assert report.worst_drop_mv >= report.mean_drop_mv
        assert report.total_current_ma == pytest.approx(1.0 / 0.7)

    def test_drop_scales_with_power(self, ffet_lib, mult4, implemented):
        _die, powerplan, placement = implemented
        lo = analyze_ir_drop(mult4, ffet_lib, placement, powerplan, 0.5)
        hi = analyze_ir_drop(mult4, ffet_lib, placement, powerplan, 2.0)
        assert hi.worst_drop_mv == pytest.approx(4 * lo.worst_drop_mv,
                                                 rel=1e-6)

    def test_denser_stripes_less_drop(self, ffet_lib, mult4):
        from repro.pnr import legalize

        die = plan_floor(mult4, ffet_lib, FloorplanSpec(0.6))
        drops = {}
        for pitch in (16, 64):
            powerplan = plan_power(ffet_lib.tech, die, stripe_pitch_cpp=pitch)
            placement = place(mult4, ffet_lib, die, powerplan, seed=0)
            report = analyze_ir_drop(mult4, ffet_lib, placement, powerplan,
                                     1.0)
            drops[pitch] = report.worst_drop_mv
        assert drops[16] <= drops[64]

    def test_signoff_bound(self, ffet_lib, mult4, implemented):
        _die, powerplan, placement = implemented
        report = analyze_ir_drop(mult4, ffet_lib, placement, powerplan, 0.2)
        assert report.ok  # a 0.2 mW multiplier is comfortably within 5%


class TestHold:
    def test_hold_fixing_closes_violations(self, ffet_lib, mult4,
                                           implemented):
        from repro.sta import fix_hold

        _die, _powerplan, placement = implemented
        extraction = reference.estimate_parasitics(mult4, ffet_lib, placement)
        report = analyze_hold(mult4, ffet_lib, extraction)
        assert report.endpoint_count > 0
        before = len(mult4.instances)
        fixed = fix_hold(mult4, ffet_lib, extraction)
        assert fixed.met, fixed.worst_endpoint
        if not report.met:
            # Fixing inserted delay buffers.
            assert len(mult4.instances) > before

    def test_hold_slack_finite(self, ffet_lib, counter8):
        extraction = estimate_parasitics(counter8, ffet_lib)
        report = analyze_hold(counter8, ffet_lib, extraction)
        assert abs(report.worst_slack_ps) < 1e6

    def test_violations_counted(self, ffet_lib, counter8):
        extraction = estimate_parasitics(counter8, ffet_lib)
        report = analyze_hold(counter8, ffet_lib, extraction)
        assert report.violations >= 0
        if report.met:
            assert report.violations == 0

    def test_setup_and_hold_consistent(self, ffet_lib, mult4, implemented):
        _die, _powerplan, placement = implemented
        extraction = reference.estimate_parasitics(mult4, ffet_lib, placement)
        setup = analyze_timing(mult4, ffet_lib, extraction, 2000.0)
        hold = analyze_hold(mult4, ffet_lib, extraction)
        # Min-path arrivals cannot exceed max-path arrivals.
        assert hold.worst_slack_ps < setup.worst_arrival_ps

    def test_no_endpoints_rejected(self, ffet_lib):
        from repro.netlist import Netlist

        nl = Netlist("comb")
        nl.add_net("a", primary_input=True)
        nl.add_net("z", primary_output=True)
        nl.add_instance("g", "INVD1", {"A": "a", "ZN": "z"})
        nl.bind(ffet_lib)
        extraction = estimate_parasitics(nl, ffet_lib)
        with pytest.raises(ValueError):
            analyze_hold(nl, ffet_lib, extraction)
