"""Ablation benchmarks for the design choices DESIGN.md calls out.

* Dual-sided *output* pins (the paper's choice) vs dual-sided *input*
  pins (rejected for pin-density explosion) vs single-sided outputs
  with bridging cells (rejected for area/delay cost).
* Power-stripe pitch around the 64 CPP default.
* Rip-up-and-reroute iteration count.
"""

import pytest

from repro import build_library, make_ffet_node
from repro.cells import single_sided_output_library, widen_input_pins
from repro.core import FlowConfig, PPAResult, run_flow
from repro.core import flow as flow_mod
from repro.core.runner import run_once
from repro.synth import generate_multiplier
from repro.tech import Side

from conftest import print_header


def mult_factory():
    return generate_multiplier(8)


class TestPinStyleAblation:
    def test_dual_sided_input_pins_double_density(self, benchmark):
        def run():
            base = build_library(make_ffet_node())
            wide = widen_input_pins(base)
            return base, wide

        base, wide = benchmark.pedantic(run, rounds=1, iterations=1)
        base_density = base.mean_pin_density(Side.BACK)
        wide_density = wide.mean_pin_density(Side.BACK)
        print_header("Ablation: dual-sided input pins (Gate Merge)")
        print(f"backside pin density per CPP: base {base_density:.3f}, "
              f"dual-sided inputs {wide_density:.3f} "
              f"({wide_density / base_density:.2f}x)")
        print("Paper III.A: 'the dual-sided input pins will lead to very "
              "high pin density and thus many cells cannot be achieved'")
        assert wide_density > 1.5 * base_density

    def test_bridging_cells_cost_area(self, benchmark, monkeypatch):
        def run():
            native = run_flow(mult_factory,
                              FlowConfig(arch="ffet", utilization=0.6,
                                         backside_pin_fraction=0.5))
            # The bridged run's library stage builds the flow's own
            # library with every output pin moved frontside.
            prepare = flow_mod.prepare_library
            with monkeypatch.context() as patch:
                patch.setattr(flow_mod, "prepare_library",
                              lambda config: single_sided_output_library(
                                  prepare(config)))
                bridged = run_flow(mult_factory,
                                   FlowConfig(arch="ffet", utilization=0.6,
                                              backside_pin_fraction=0.5,
                                              allow_bridging=True))
            return native, bridged

        native, bridged = benchmark.pedantic(run, rounds=1, iterations=1)
        print_header("Ablation: bridging cells vs native dual-sided outputs")
        print(f"native:  {native.summary()}")
        print(f"bridged: {bridged.summary()}")
        extra_cells = bridged.cell_count - native.cell_count
        print(f"bridging cells added: {extra_cells}")
        print("Paper: 'to minimize the area cost, we did not use the "
              "bridging cells'")
        assert extra_cells > 0
        assert bridged.cell_area_um2 > native.cell_area_um2


class TestTapPitchAblation:
    def test_stripe_pitch_vs_max_utilization(self, benchmark):
        def run():
            out = {}
            for pitch in (32, 64, 128):
                config = FlowConfig(arch="ffet", backside_pin_fraction=0.5,
                                    utilization=0.70,
                                    power_stripe_pitch_cpp=pitch)
                out[pitch] = run_once(mult_factory, config)
            return out

        results = benchmark.pedantic(run, rounds=1, iterations=1)
        print_header("Ablation: power-stripe pitch (default 64 CPP)")
        for pitch, run_ in results.items():
            if isinstance(run_, PPAResult):
                print(f"  {pitch:>4} CPP: taps={run_.tap_cell_count} "
                      f"area={run_.core_area_um2:.1f}um2 "
                      f"valid={run_.valid}")
            else:
                print(f"  {pitch:>4} CPP: {run_.reason}")
        ok = {p: r for p, r in results.items() if isinstance(r, PPAResult)}
        # Denser stripes -> more tap cells -> less placeable area.  (On
        # a narrow die 64 and 128 CPP may both fit only one VSS stripe.)
        assert ok[32].tap_cell_count > ok[64].tap_cell_count >= \
            ok[128].tap_cell_count


class TestRouterAblation:
    def test_rrr_iterations_improve_congestion(self, benchmark):
        def run():
            out = {}
            for iters in (0, 8):
                config = FlowConfig(arch="ffet", back_layers=0,
                                    backside_pin_fraction=0.0,
                                    utilization=0.72, rrr_iterations=iters)
                out[iters] = run_flow(mult_factory, config)
            return out

        results = benchmark.pedantic(run, rounds=1, iterations=1)
        print_header("Ablation: rip-up-and-reroute iterations")
        for iters, run_ in results.items():
            print(f"  RRR={iters}: drv={run_.drv_count} "
                  f"wl={run_.total_wirelength_um:.0f}um")
        assert results[8].drv_count <= results[0].drv_count


class TestPlacementRefinementAblation:
    def test_refinement_improves_wirelength(self, benchmark):
        from repro.core import run_flow

        def run():
            base = run_flow(mult_factory,
                            FlowConfig(arch="ffet", utilization=0.65,
                                       backside_pin_fraction=0.5))
            refined = run_flow(mult_factory,
                               FlowConfig(arch="ffet", utilization=0.65,
                                          backside_pin_fraction=0.5,
                                          refine_placement=True))
            return base, refined

        base, refined = benchmark.pedantic(run, rounds=1, iterations=1)
        print_header("Ablation: greedy detailed-placement refinement")
        print(f"  base:    wl={base.total_wirelength_um:.0f}um "
              f"f={base.achieved_frequency_ghz:.3f}GHz")
        print(f"  refined: wl={refined.total_wirelength_um:.0f}um "
              f"f={refined.achieved_frequency_ghz:.3f}GHz")
        assert refined.total_wirelength_um <= base.total_wirelength_um
