"""Netlist data structure tests: binding, traversal, simulation."""

import pytest

from repro.netlist import Netlist


def tiny_netlist():
    """clk -> DFF -> INV -> out, with a NAND mixing in a PI."""
    nl = Netlist("tiny")
    nl.add_net("clk", primary_input=True, clock=True)
    nl.add_net("a", primary_input=True)
    nl.add_net("out", primary_output=True)
    nl.add_instance("ff", "DFFD1", {"D": "n2", "CK": "clk", "Q": "q"})
    nl.add_instance("g1", "INVD1", {"A": "q", "ZN": "n1"})
    nl.add_instance("g2", "NAND2D1", {"A": "n1", "B": "a", "ZN": "n2"})
    nl.add_instance("g3", "BUFD1", {"A": "q", "Z": "out"})
    return nl


class TestConstruction:
    def test_add_instance_creates_missing_nets_in_pin_order(self):
        nl = Netlist("t")
        nl.add_net("a", primary_input=True)
        nl.add_instance("g", "NAND2D1", {"B": "b", "A": "a", "ZN": "y"})
        assert list(nl.nets) == ["a", "b", "y"]
        assert nl.nets["a"].is_primary_input
        for name in ("b", "y"):
            net = nl.nets[name]
            assert (net.driver, net.sinks, net.is_primary_input,
                    net.is_primary_output, net.is_clock) \
                == (None, [], False, False, False)

    def test_add_instance_keeps_existing_nets(self):
        nl = tiny_netlist()
        clk = nl.nets["clk"]
        nl.add_instance("ff2", "DFFD1", {"D": "a", "CK": "clk", "Q": "q2"})
        assert nl.nets["clk"] is clk and clk.is_clock
        assert list(nl.nets)[-1] == "q2"

    def test_add_instance_copies_its_connections(self):
        nl = Netlist("t")
        pins = {"A": "a", "ZN": "y"}
        inst = nl.add_instance("g", "INVD1", pins)
        pins["A"] = "other"
        assert inst.connections == {"A": "a", "ZN": "y"}

    def test_duplicate_instance_rejected(self):
        nl = tiny_netlist()
        with pytest.raises(ValueError, match="duplicate"):
            nl.add_instance("g1", "INVD1", {"A": "a", "ZN": "z"})


class TestBinding:
    def test_bind_resolves_drivers(self, ffet_lib):
        nl = tiny_netlist()
        nl.bind(ffet_lib)
        assert nl.nets["n1"].driver == ("g1", "ZN")
        assert ("g2", "A") in nl.nets["n1"].sinks

    def test_clock_marked(self, ffet_lib):
        nl = tiny_netlist()
        nl.bind(ffet_lib)
        assert nl.nets["clk"].is_clock

    def test_unconnected_pin_rejected(self, ffet_lib):
        nl = Netlist("bad")
        nl.add_instance("g", "NAND2D1", {"A": "x", "ZN": "y"})  # B missing
        nl.add_net("x", primary_input=True)
        with pytest.raises(ValueError, match="unconnected"):
            nl.bind(ffet_lib)

    def test_multiple_drivers_rejected(self, ffet_lib):
        nl = Netlist("bad")
        nl.add_net("x", primary_input=True)
        nl.add_instance("g1", "INVD1", {"A": "x", "ZN": "y"})
        nl.add_instance("g2", "INVD1", {"A": "x", "ZN": "y"})
        with pytest.raises(ValueError, match="multiply driven"):
            nl.bind(ffet_lib)

    def test_undriven_net_rejected(self, ffet_lib):
        nl = Netlist("bad")
        nl.add_instance("g", "INVD1", {"A": "floating", "ZN": "y"})
        nl.add_net("y", primary_output=True)
        with pytest.raises(ValueError, match="no driver"):
            nl.bind(ffet_lib)

    def test_dangling_nets_pruned(self, ffet_lib):
        nl = tiny_netlist()
        nl.add_net("orphan")
        nl.bind(ffet_lib)
        assert "orphan" not in nl.nets


class TestQueries:
    def test_cell_counts(self, ffet_lib):
        nl = tiny_netlist()
        nl.bind(ffet_lib)
        counts = nl.cell_counts()
        assert counts["DFFD1"] == 1 and counts["INVD1"] == 1

    def test_sequential_split(self, ffet_lib):
        nl = tiny_netlist()
        nl.bind(ffet_lib)
        assert [i.name for i in nl.sequential_instances(ffet_lib)] == ["ff"]
        assert len(nl.combinational_instances(ffet_lib)) == 3

    def test_total_area_positive(self, ffet_lib):
        nl = tiny_netlist()
        nl.bind(ffet_lib)
        assert nl.total_cell_area_nm2(ffet_lib) > 0

    def test_net_degree(self, ffet_lib):
        nl = tiny_netlist()
        nl.bind(ffet_lib)
        q = nl.nets["q"]
        assert q.fanout == 2 and q.degree == 3


class TestTopologicalOrder:
    def test_respects_dependencies(self, ffet_lib):
        nl = tiny_netlist()
        nl.bind(ffet_lib)
        order = [i.name for i in nl.topological_order(ffet_lib)]
        assert order.index("g1") < order.index("g2")

    def test_loop_detected(self, ffet_lib):
        nl = Netlist("loop")
        nl.add_instance("g1", "INVD1", {"A": "b", "ZN": "a"})
        nl.add_instance("g2", "INVD1", {"A": "a", "ZN": "b"})
        nl.bind(ffet_lib)
        with pytest.raises(ValueError, match="loop"):
            nl.topological_order(ffet_lib)


class TestSimulation:
    def test_combinational_eval(self, ffet_lib):
        nl = tiny_netlist()
        nl.bind(ffet_lib)
        values = nl.simulate(ffet_lib, {"a": True}, state={"ff": True})
        # q=1 -> n1=0 -> n2 = !(0 & 1) = 1; out follows q.
        assert values["n1"] is False
        assert values["n2"] is True
        assert values["out"] is True

    def test_next_state_captures_d(self, ffet_lib):
        nl = tiny_netlist()
        nl.bind(ffet_lib)
        state = {"ff": False}
        nxt = nl.next_state(ffet_lib, {"a": True}, state)
        # q=0 -> n1=1 -> n2 = !(1&1) = 0
        assert nxt["ff"] is False
        nxt2 = nl.next_state(ffet_lib, {"a": False}, {"ff": False})
        assert nxt2["ff"] is True

    def test_missing_input_rejected(self, ffet_lib):
        nl = tiny_netlist()
        nl.bind(ffet_lib)
        with pytest.raises(KeyError):
            nl.simulate(ffet_lib, {})


class TestNetlistStats:
    def test_counter_stats(self, ffet_lib, counter8):
        from repro.netlist import netlist_stats

        stats = netlist_stats(counter8, ffet_lib)
        assert stats.flops == 8
        assert stats.instances == len(counter8.instances)
        assert stats.combinational == stats.instances - 8
        assert stats.logic_depth >= 2       # incrementer chain
        assert stats.cell_area_um2 > 0
        assert stats.cell_histogram["DFFD1"] == 8
        assert "instances:" in stats.format()

    def test_riscv_depth_reasonable(self, ffet_lib, rv_tiny):
        from repro.netlist import netlist_stats

        stats = netlist_stats(rv_tiny, ffet_lib)
        # Kogge-Stone keeps depth logarithmic-ish; a tiny core should
        # stay well below a ripple-carry depth.
        assert 5 <= stats.logic_depth <= 60
        assert stats.max_fanout >= 8
