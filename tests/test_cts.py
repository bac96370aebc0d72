"""Clock tree synthesis tests: single mode, dual mode, flow-through."""

import pytest

from repro.core import FlowConfig
from repro.pnr import (
    FloorplanSpec,
    place,
    plan_floor,
    plan_power,
    synthesize_clock_tree,
)


@pytest.fixture()
def placed(ffet_lib, mult4):
    die = plan_floor(mult4, ffet_lib, FloorplanSpec(0.7))
    powerplan = plan_power(ffet_lib.tech, die)
    placement = place(mult4, ffet_lib, die, powerplan, seed=0)
    return die, powerplan, placement


class TestClockTree:
    def test_every_flop_buffered(self, ffet_lib, mult4, placed):
        _die, _pp, placement = placed
        flops = [i.name for i in mult4.sequential_instances(ffet_lib)]
        synthesize_clock_tree(mult4, ffet_lib, placement, "clk")
        for name in flops:
            ck_net = mult4.instances[name].connections["CK"]
            assert ck_net.startswith("ctsnet_")
            driver_inst, _pin = mult4.nets[ck_net].driver
            assert ffet_lib[mult4.instances[driver_inst].master].function == \
                "CLKBUF"

    def test_root_connected_to_clock_pi(self, ffet_lib, mult4, placed):
        _die, _pp, placement = placed
        report = synthesize_clock_tree(mult4, ffet_lib, placement, "clk")
        root = mult4.instances[report.root_buffer]
        assert root.connections["A"] == "clk"

    def test_fanout_budget(self, ffet_lib, mult4, placed):
        _die, _pp, placement = placed
        max_fanout = 8
        synthesize_clock_tree(mult4, ffet_lib, placement, "clk",
                              max_fanout=max_fanout)
        for net in mult4.nets.values():
            if net.name.startswith("ctsnet_"):
                assert len(net.sinks) <= max_fanout

    def test_report_counts(self, ffet_lib, mult4, placed):
        _die, _pp, placement = placed
        n_flops = len(mult4.sequential_instances(ffet_lib))
        report = synthesize_clock_tree(mult4, ffet_lib, placement, "clk")
        assert report.sinks == n_flops
        assert report.buffers >= 1
        assert report.levels >= 1

    def test_buffers_placed(self, ffet_lib, mult4, placed):
        _die, _pp, placement = placed
        report = synthesize_clock_tree(mult4, ffet_lib, placement, "clk")
        cts_instances = [n for n in mult4.instances if n.startswith("ctsbuf_")]
        assert len(cts_instances) == report.buffers
        for name in cts_instances:
            assert name in placement.locations

    def test_netlist_still_binds(self, ffet_lib, mult4, placed):
        _die, _pp, placement = placed
        synthesize_clock_tree(mult4, ffet_lib, placement, "clk")
        mult4.bind(ffet_lib)  # must not raise

    def test_missing_clock_rejected(self, ffet_lib, mult4, placed):
        _die, _pp, placement = placed
        with pytest.raises(KeyError):
            synthesize_clock_tree(mult4, ffet_lib, placement, "not_a_clock")

    def test_large_tree_has_multiple_levels(self, ffet_lib, placed):
        from repro.synth import generate_multiplier

        nl = generate_multiplier(8)
        nl.bind(ffet_lib)
        die = plan_floor(nl, ffet_lib, FloorplanSpec(0.7))
        powerplan = plan_power(ffet_lib.tech, die)
        placement = place(nl, ffet_lib, die, powerplan, seed=0)
        report = synthesize_clock_tree(nl, ffet_lib, placement, "clk",
                                       max_fanout=4)
        assert report.levels >= 3

    def test_single_mode_report_is_all_frontside(self, ffet_lib, mult4,
                                                 placed):
        _die, _pp, placement = placed
        report = synthesize_clock_tree(mult4, ffet_lib, placement, "clk")
        assert report.mode == "single"
        assert report.back_wirelength_nm == 0.0
        assert report.back_buffers == 0
        assert report.back_fraction == 0.0
        assert set(report.net_sides.values()) == {"front"}

    def test_unknown_mode_rejected(self, ffet_lib, mult4, placed):
        _die, _pp, placement = placed
        with pytest.raises(ValueError, match="unknown CTS mode"):
            synthesize_clock_tree(mult4, ffet_lib, placement, "clk",
                                  mode="both")


class TestDualSidedClockTree:
    def test_dual_mode_uses_backside_metal(self, ffet_lib, mult4, placed):
        _die, _pp, placement = placed
        report = synthesize_clock_tree(mult4, ffet_lib, placement, "clk",
                                       max_fanout=4, mode="dual")
        assert report.mode == "dual"
        assert report.back_buffers > 0
        assert report.back_wirelength_nm > 0.0
        assert "back" in set(report.net_sides.values())
        assert report.front_buffers + report.back_buffers == report.buffers

    def test_back_fraction_knob_steers_the_partition(self, ffet_lib, mult4,
                                                     placed):
        _die, _pp, placement = placed
        low = synthesize_clock_tree(mult4, ffet_lib, placement, "clk",
                                    max_fanout=4, mode="dual",
                                    back_fraction=0.0)
        # Fresh design for the second synthesis (CTS mutates in place).
        from repro.synth import generate_multiplier
        nl2 = generate_multiplier(4)
        nl2.bind(ffet_lib)
        die2 = plan_floor(nl2, ffet_lib, FloorplanSpec(0.7))
        pp2 = plan_power(ffet_lib.tech, die2)
        pl2 = place(nl2, ffet_lib, die2, pp2, seed=0)
        high = synthesize_clock_tree(nl2, ffet_lib, pl2, "clk",
                                     max_fanout=4, mode="dual",
                                     back_fraction=1.0)
        assert low.back_fraction <= high.back_fraction
        assert high.back_fraction > 0.0

    def test_skew_report_is_consistent(self, ffet_lib, mult4, placed):
        _die, _pp, placement = placed
        report = synthesize_clock_tree(mult4, ffet_lib, placement, "clk",
                                       max_fanout=4, mode="dual")
        assert report.skew_est_ps == pytest.approx(
            report.max_insertion_ps - report.min_insertion_ps)
        assert len(report.sink_insertion_ps) == report.sinks


class TestDualCtsConfig:
    def test_dual_needs_ffet(self):
        with pytest.raises(ValueError, match="dual-sided CTS"):
            FlowConfig(arch="cfet", back_layers=0, backside_pin_fraction=0.0,
                       cts_mode="dual")

    def test_dual_needs_backside_layers(self):
        with pytest.raises(ValueError, match="dual-sided CTS"):
            FlowConfig(arch="ffet", back_layers=0, backside_pin_fraction=0.0,
                       cts_mode="dual")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="cts_mode"):
            FlowConfig(cts_mode="both")

    def test_fraction_bounds(self):
        with pytest.raises(ValueError, match="cts_back_fraction"):
            FlowConfig(cts_back_fraction=1.5)


class TestDualCtsFlowThrough:
    """Dual-sided CTS reaches routing, DEF, extraction and variation."""

    @pytest.fixture(scope="class")
    def flows(self):
        from repro.core.flow import run_flow
        from repro.synth import generate_multiplier

        def factory():
            return generate_multiplier(5)

        single = run_flow(factory, FlowConfig(), return_artifacts=True)
        dual = run_flow(factory, FlowConfig(cts_mode="dual"),
                        return_artifacts=True)
        return single, dual

    def _clock_nets(self, artifacts):
        return [n for n in artifacts.extraction
                if n.startswith("ctsnet_")]

    def test_backside_clock_wires_reach_extraction(self, flows):
        single, dual = flows
        back = sum(dual.extraction[n].back_wirelength_nm
                   for n in self._clock_nets(dual))
        assert back > 0.0
        assert sum(single.extraction[n].back_wirelength_nm
                   for n in self._clock_nets(single)) == 0.0

    def test_merged_def_routes_clock_on_bm_layers(self, flows):
        _single, dual = flows
        bm_clock_segments = [
            seg for net, segs in dual.merged_def.nets.items()
            if net.startswith("ctsnet_")
            for seg in segs if seg.layer.startswith("BM")
        ]
        assert bm_clock_segments
        assert set(dual.cts_report.net_sides.values()) >= {"back"}

    def test_results_stay_valid_in_both_modes(self, flows):
        single, dual = flows
        assert single.result.valid and dual.result.valid
        assert dual.result.cts_buffers == single.result.cts_buffers

    def test_overlay_perturbs_dual_clock_but_not_single(self, flows):
        """Backside clock wires inherit the FFET overlay RC model; a
        single-sided clock is exactly overlay-insensitive."""
        from repro.variation.models import VariationSample
        from .reference.variation import perturb_extraction

        single, dual = flows
        pitch = single.library.tech.rules.track_pitch_nm
        sample = VariationSample(index=0, seed=0,
                                 overlay_dx_nm=pitch, overlay_dy_nm=0.0,
                                 cell_derate=1.0,
                                 front_rc_scale=1.0, back_rc_scale=1.0)

        pert_dual = perturb_extraction(dual.extraction, sample, pitch)
        changed = [n for n in self._clock_nets(dual)
                   if pert_dual[n].wire_res_kohm
                   != dual.extraction[n].wire_res_kohm]
        assert changed, "no backside clock net saw the overlay RC shift"

        pert_single = perturb_extraction(single.extraction, sample, pitch)
        for n in self._clock_nets(single):
            assert pert_single[n].wire_res_kohm \
                == single.extraction[n].wire_res_kohm
            assert pert_single[n].wire_cap_ff \
                == single.extraction[n].wire_cap_ff
