"""Property-based tests for the file-format round-trips."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.lefdef import DefComponent, DefDesign, RouteSegment, parse_def, write_def

from .reference import extract as reference

slow = settings(max_examples=25,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

_LAYERS = ["FM1", "FM2", "FM5", "FM12", "BM1", "BM2", "BM12"]


@st.composite
def def_designs(draw):
    width = draw(st.integers(1000, 50000))
    height = draw(st.integers(1000, 50000))
    design = DefDesign(f"d{draw(st.integers(0, 99))}", float(width),
                       float(height))
    for i in range(draw(st.integers(0, 6))):
        design.components[f"u{i}"] = DefComponent(
            f"u{i}", draw(st.sampled_from(["INVD1", "NAND2D1", "DFFD1"])),
            float(draw(st.integers(0, width))),
            float(draw(st.integers(0, height))),
            fixed=draw(st.booleans()),
        )
    for n in range(draw(st.integers(0, 5))):
        segments = []
        for _ in range(draw(st.integers(1, 4))):
            x1 = draw(st.integers(0, width))
            y1 = draw(st.integers(0, height))
            horizontal = draw(st.booleans())
            if horizontal:
                x2, y2 = draw(st.integers(0, width)), y1
            else:
                x2, y2 = x1, draw(st.integers(0, height))
            segments.append(RouteSegment(
                draw(st.sampled_from(_LAYERS)),
                float(x1), float(y1), float(x2), float(y2)))
        design.nets[f"net{n}"] = segments
    return design


class TestDefRoundTripProperties:
    @slow
    @given(def_designs())
    def test_round_trip_preserves_everything(self, design):
        back = parse_def(write_def(design))
        assert back.name == design.name
        assert back.die_width_nm == design.die_width_nm
        assert set(back.components) == set(design.components)
        for name, comp in design.components.items():
            parsed = back.components[name]
            assert parsed.master == comp.master
            assert parsed.x_nm == comp.x_nm
            assert parsed.y_nm == comp.y_nm
            assert parsed.fixed == comp.fixed
        assert set(back.nets) == set(design.nets)
        for name, segments in design.nets.items():
            assert back.nets[name] == segments

    @slow
    @given(def_designs())
    def test_wirelength_preserved(self, design):
        back = parse_def(write_def(design))
        assert back.total_wirelength_nm == pytest.approx(
            design.total_wirelength_nm)


@pytest.fixture(scope="module")
def ffet_liberty_roundtrip(ffet_lib):
    """The FFET library written to Liberty text and parsed back, once:
    the round trip is the same for every example."""
    from repro.cells import parse_liberty, write_liberty

    return parse_liberty(write_liberty(ffet_lib), ffet_lib)


class TestLibertyTableProperties:
    @slow
    @given(st.integers(0, 10))
    def test_liberty_tables_roundtrip_exactly(self, ffet_lib,
                                              ffet_liberty_roundtrip, seed):
        """Any cell's tables survive the Liberty text round trip."""
        import random

        rng = random.Random(seed)
        name = rng.choice([m.name for m in ffet_lib if m.arcs])
        orig = ffet_lib[name].arcs[0]
        back = ffet_liberty_roundtrip[name].arcs[0]
        slew = rng.uniform(2.0, 80.0)
        load = rng.uniform(0.5, 40.0)
        assert back.delay(slew, load, True) == pytest.approx(
            orig.delay(slew, load, True), abs=1e-3)


@st.composite
def spef_cases(draw):
    """A synthetic netlist + extraction pair covering the SPEF subset."""
    from repro.extract.rc import NetParasitics
    from repro.netlist import Netlist

    netlist = Netlist(f"d{draw(st.integers(0, 99))}")
    nets = []
    for i in range(draw(st.integers(1, 6))):
        name = f"n{i}"
        net = netlist.add_net(name)
        if draw(st.booleans()):
            net.driver = (f"u{i}", "ZN")
        else:
            net.is_primary_input = True
        for s in range(draw(st.integers(0, 4))):
            net.sinks.append(
                (f"u{i}x{s}", draw(st.sampled_from(["A1", "A2", "D", "CP"]))))
        # Values with <= 4 decimal places survive the writer's %.6f.
        nets.append(NetParasitics(
            net=name,
            wire_cap_ff=draw(st.integers(0, 10**6)) / 1e4,
            wire_res_kohm=draw(st.integers(0, 10**6)) / 1e4,
            pin_cap_ff=draw(st.integers(0, 10**4)) / 1e4,
            sink_elmore_ps={},
            wirelength_nm=0.0,
        ))
    return netlist, reference.from_nets(nets)


class TestSpefRoundTripProperties:
    @slow
    @given(spef_cases())
    def test_round_trip_preserves_every_net(self, case):
        from repro.extract import parse_spef, write_spef

        netlist, extraction = case
        parsed = parse_spef(write_spef(netlist, extraction))
        assert set(parsed) == set(netlist.nets)
        for name, net in netlist.nets.items():
            spef = parsed[name]
            assert spef.driver == net.driver
            assert spef.sinks == net.sinks
            p = extraction[name]
            assert spef.wire_cap_ff == pytest.approx(p.wire_cap_ff,
                                                     abs=1e-6)
            assert spef.wire_res_kohm == pytest.approx(p.wire_res_kohm,
                                                       abs=1e-6)
            assert spef.total_cap_ff == pytest.approx(p.total_cap_ff,
                                                      abs=1e-6)

    @slow
    @given(spef_cases())
    def test_writer_skips_unextracted_nets(self, case):
        from repro.extract import parse_spef, write_spef

        netlist, extraction = case
        dropped = sorted(extraction)[0]
        kept = reference.from_nets(p for name, p in extraction.items()
                                   if name != dropped)
        parsed = parse_spef(write_spef(netlist, kept))
        assert set(parsed) == set(netlist.nets) - {dropped}
