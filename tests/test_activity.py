"""Switching-activity propagation tests."""

import pytest

from repro.cells import build_library
from repro.extract import estimate_parasitics
from repro.macros import MacroMaster, attach_macros
from repro.netlist import Netlist
from repro.power import analyze_power, propagate_activities
from repro.synth import generate_rv16_sram
from repro.tech import make_ffet_node


def gate_netlist(master, pins):
    nl = Netlist("t")
    nl.add_net("clk", primary_input=True, clock=True)
    for pin, net in pins.items():
        if net not in nl.nets and not net.startswith("z"):
            nl.add_net(net, primary_input=True)
    nl.add_net("z", primary_output=True)
    nl.add_instance("g", master, pins)
    # A flop keeps the design clocked so endpoints exist elsewhere.
    nl.add_instance("ff", "DFFD1", {"D": "z", "CK": "clk", "Q": "q"})
    nl.add_net("q", primary_output=True)
    return nl


class TestGateActivities:
    def test_and_reduces_activity(self, ffet_lib):
        nl = gate_netlist("AND2D1", {"A": "a", "B": "b", "Z": "z"})
        nl.bind(ffet_lib)
        acts = propagate_activities(nl, ffet_lib, input_density=0.25)
        # Each input is sensitized only when the other is 1 (p = 0.5):
        # D(z) = 0.5*0.25 + 0.5*0.25 = 0.25... for AND at p=0.5 the
        # sensitization probability is 0.5 per input.
        assert acts["z"] == pytest.approx(0.25, abs=0.01)

    def test_xor_amplifies_activity(self, ffet_lib):
        nl = gate_netlist("XOR2D1", {"A": "a", "B": "b", "Z": "z"})
        nl.bind(ffet_lib)
        acts = propagate_activities(nl, ffet_lib, input_density=0.25)
        # XOR is always sensitized to both inputs: D(z) = 0.5.
        assert acts["z"] == pytest.approx(0.5, abs=0.01)

    def test_inverter_preserves_activity(self, ffet_lib):
        nl = gate_netlist("INVD1", {"A": "a", "ZN": "z"})
        nl.bind(ffet_lib)
        acts = propagate_activities(nl, ffet_lib, input_density=0.25)
        assert acts["z"] == pytest.approx(0.25, abs=0.01)

    def test_tie_cells_never_toggle(self, ffet_lib):
        nl = Netlist("t")
        nl.add_net("clk", primary_input=True, clock=True)
        nl.add_instance("tie", "TIEHI", {"Z": "one"})
        nl.add_instance("g", "BUFD1", {"A": "one", "Z": "z"})
        nl.add_instance("ff", "DFFD1", {"D": "z", "CK": "clk", "Q": "q"})
        nl.add_net("q", primary_output=True)
        nl.bind(ffet_lib)
        acts = propagate_activities(nl, ffet_lib)
        assert acts["one"] == 0.0
        assert acts["z"] == 0.0

    def test_flop_output_rate(self, ffet_lib):
        nl = Netlist("t")
        nl.add_net("clk", primary_input=True, clock=True)
        nl.add_net("d", primary_input=True)
        nl.add_instance("ff", "DFFD1", {"D": "d", "CK": "clk", "Q": "q"})
        nl.add_net("q", primary_output=True)
        nl.bind(ffet_lib)
        acts = propagate_activities(nl, ffet_lib,
                                    input_probability=0.5)
        # Q toggles when D != Q: 2 p (1-p) = 0.5 at p = 0.5.
        assert acts["q"] == pytest.approx(0.5, abs=0.01)

    def test_densities_bounded(self, ffet_lib, mult4):
        acts = propagate_activities(mult4, ffet_lib)
        assert all(0.0 <= v <= 2.0 for v in acts.values())

    def test_clock_excluded(self, ffet_lib, counter8):
        acts = propagate_activities(counter8, ffet_lib)
        assert "clk" not in acts


class TestPowerWithActivities:
    def test_power_uses_propagated_rates(self, ffet_lib, mult4):
        extraction = estimate_parasitics(mult4, ffet_lib)
        acts = propagate_activities(mult4, ffet_lib)
        flat = analyze_power(mult4, ffet_lib, extraction, 1.0)
        prop = analyze_power(mult4, ffet_lib, extraction, 1.0,
                             activities=acts)
        assert prop.total_mw != flat.total_mw
        assert prop.leakage_mw == flat.leakage_mw

    def test_zero_activity_kills_data_switching(self, ffet_lib, counter8):
        extraction = estimate_parasitics(counter8, ffet_lib)
        zeros = {name: 0.0 for name in counter8.nets}
        report = analyze_power(counter8, ffet_lib, extraction, 1.0,
                               activities=zeros)
        # Only the clock cone (and flop CK pins) still burns power.
        full = analyze_power(counter8, ffet_lib, extraction, 1.0)
        assert report.switching_mw < full.switching_mw


class TestMacroActivities:
    def test_every_macro_output_gets_a_density(self):
        """A hard macro is a sequential cell with many outputs and no
        ``D`` pin: each output net is seeded like a flop's Q."""
        library = build_library(make_ffet_node())
        netlist = generate_rv16_sram(xlen=8, nregs=8, words=16,
                                     name="rv8_sram")
        attach_macros(netlist, library)
        netlist.bind(library)
        acts = propagate_activities(netlist, library)
        macros = [inst for inst in netlist.instances.values()
                  if isinstance(library[inst.master], MacroMaster)]
        assert macros
        for inst in macros:
            outputs = library[inst.master].output_pins
            assert len(outputs) > 1
            for pin in outputs:
                assert 0.0 <= acts[inst.connections[pin.name]] <= 2.0
