"""RC tree and extraction tests."""

import pytest

from repro.extract import estimate_parasitics
from repro.extract.extract import _extract_nets
from repro.lefdef import RouteSegment
from repro.tech import build_stackup

from .reference import extract as reference
from .reference.extract import RCTree, extract_net


def extract_one(net_name, segments, stackup, driver_xy, sinks, rc_scale=1.0):
    """One net through the production seam, with ``extract_net``'s
    signature."""
    extraction, _nodes = _extract_nets(
        stackup, [(net_name, segments, driver_xy, sinks, rc_scale)])
    return extraction[net_name]


class TestRCTree:
    def test_single_resistor(self):
        tree = RCTree(root="r")
        tree.add_edge("r", "a", res_kohm=2.0)
        tree.add_cap("a", 3.0)
        assert tree.elmore_ps()["a"] == pytest.approx(6.0)

    def test_series_chain(self):
        tree = RCTree(root="r")
        tree.add_edge("r", "a", 1.0)
        tree.add_edge("a", "b", 1.0)
        tree.add_cap("a", 1.0)
        tree.add_cap("b", 1.0)
        # delay(a) = 1*(1+1) = 2 ; delay(b) = 2 + 1*1 = 3
        delays = tree.elmore_ps()
        assert delays["a"] == pytest.approx(2.0)
        assert delays["b"] == pytest.approx(3.0)

    def test_branching(self):
        tree = RCTree(root="r")
        tree.add_edge("r", "m", 1.0)
        tree.add_edge("m", "x", 1.0)
        tree.add_edge("m", "y", 2.0)
        for node in ("x", "y"):
            tree.add_cap(node, 1.0)
        delays = tree.elmore_ps()
        assert delays["x"] == pytest.approx(2.0 + 1.0)
        assert delays["y"] == pytest.approx(2.0 + 2.0)

    def test_loop_tolerated(self):
        tree = RCTree(root="r")
        tree.add_edge("r", "a", 1.0)
        tree.add_edge("a", "b", 1.0)
        tree.add_edge("b", "r", 1.0)  # loop closes
        tree.add_cap("b", 1.0)
        delays = tree.elmore_ps()
        assert "b" in delays and delays["b"] > 0

    def test_total_cap(self):
        tree = RCTree(root="r")
        tree.add_cap("a", 1.5)
        tree.add_cap("a", 0.5)
        assert tree.total_cap_ff == pytest.approx(2.0)

    def test_connectivity(self):
        tree = RCTree(root="r")
        tree.add_edge("r", "a", 1.0)
        tree.add_node("orphan")
        assert tree.is_connected("a")
        assert not tree.is_connected("orphan")


class TestExtractNet:
    """Physics of one net, through the production seam."""

    extract_net = staticmethod(extract_one)

    @pytest.fixture(scope="class")
    def stackup(self):
        return build_stackup("ffet")

    def test_simple_net(self, stackup):
        segments = [RouteSegment("FM2", 0.0, 0.0, 1000.0, 0.0)]
        parasitics = self.extract_net(
            "n", segments, stackup, driver_xy=(0.0, 0.0),
            sinks=[("u1", "A", 0.25, (1000.0, 0.0))],
        )
        layer = stackup["FM2"]
        assert parasitics.wire_cap_ff == pytest.approx(
            layer.capacitance_ff_per_um, rel=1e-6)
        assert parasitics.wire_res_kohm == pytest.approx(
            layer.resistance_kohm_per_um, rel=1e-6)
        assert parasitics.pin_cap_ff == 0.25
        assert parasitics.elmore_to("u1", "A") > 0

    def test_far_sink_slower(self, stackup):
        segments = [RouteSegment("FM2", 0.0, 0.0, 2000.0, 0.0)]
        parasitics = self.extract_net(
            "n", segments, stackup, (0.0, 0.0),
            [("near", "A", 0.2, (0.0, 0.0)),
             ("far", "A", 0.2, (2000.0, 0.0))],
        )
        assert parasitics.elmore_to("far", "A") > \
            parasitics.elmore_to("near", "A")

    def test_no_segments_zero_wire(self, stackup):
        parasitics = self.extract_net("n", [], stackup, (0.0, 0.0),
                                      [("u1", "A", 0.3, (10.0, 10.0))])
        assert parasitics.wire_cap_ff == 0.0
        assert parasitics.total_cap_ff == pytest.approx(0.3)

    def test_dual_sided_net_sums_both_sides(self, stackup):
        segments = [
            RouteSegment("FM2", 0.0, 0.0, 1000.0, 0.0),
            RouteSegment("BM2", 0.0, 0.0, 1000.0, 0.0),
        ]
        parasitics = self.extract_net("n", segments, stackup, (0.0, 0.0), [])
        single = self.extract_net(
            "n", segments[:1], stackup, (0.0, 0.0), [])
        assert parasitics.wire_cap_ff == pytest.approx(
            2 * single.wire_cap_ff, rel=1e-6)

    def test_higher_layer_less_resistive(self, stackup):
        lo = self.extract_net("n", [RouteSegment("FM2", 0, 0, 1000, 0)],
                              stackup, (0, 0), [])
        hi = self.extract_net("n", [RouteSegment("FM12", 0, 0, 1000, 0)],
                              stackup, (0, 0), [])
        assert hi.wire_res_kohm < lo.wire_res_kohm / 10


class TestExtractNetOracle(TestExtractNet):
    """The same physics through the per-net oracle."""

    extract_net = staticmethod(extract_net)


class TestEstimateParasitics:
    def test_fanout_model_scales(self, ffet_lib, counter8):
        extraction = estimate_parasitics(counter8, ffet_lib)
        fanouts = {
            name: len(net.sinks) for name, net in counter8.nets.items()
        }
        hi = max(fanouts, key=fanouts.get)
        lo = min((n for n in fanouts if fanouts[n] > 0), key=fanouts.get)
        if fanouts[hi] > fanouts[lo]:
            assert extraction[hi].wire_cap_ff > extraction[lo].wire_cap_ff

    def test_placement_model_uses_hpwl(self, ffet_lib, mult4):
        from repro.pnr import FloorplanSpec, place, plan_floor, plan_power

        die = plan_floor(mult4, ffet_lib, FloorplanSpec(0.7))
        pp = plan_power(ffet_lib.tech, die)
        placement = place(mult4, ffet_lib, die, pp)
        extraction = reference.estimate_parasitics(mult4, ffet_lib, placement)
        assert extraction.wirelength_nm.sum() > 0

    def test_every_net_extracted(self, ffet_lib, counter8):
        extraction = estimate_parasitics(counter8, ffet_lib)
        for name in counter8.nets:
            assert name in extraction
