"""Property-based tests (hypothesis) on core data structures."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cells import LookupTable
from repro.pnr.routing.grid import RoutingGrid
from repro.pnr.routing.router import GlobalRouter, NetSpec
from repro.tech import Side, make_ffet_node

from .reference.extract import RCTree

slow = settings(max_examples=30,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


# ---------------------------------------------------------------------------
# Lookup tables
# ---------------------------------------------------------------------------
@st.composite
def monotone_tables(draw):
    slews = sorted(draw(st.lists(
        st.floats(0.5, 100.0), min_size=2, max_size=5, unique=True)))
    loads = sorted(draw(st.lists(
        st.floats(0.1, 50.0), min_size=2, max_size=5, unique=True)))
    a = draw(st.floats(0.01, 5.0))
    b = draw(st.floats(0.01, 5.0))
    values = [[a * s + b * c for c in loads] for s in slews]
    return LookupTable(np.array(slews), np.array(loads), np.array(values))


class TestLookupTableProperties:
    @slow
    @given(monotone_tables(), st.floats(0.0, 150.0), st.floats(0.0, 80.0))
    def test_within_corner_bounds(self, table, slew, load):
        value = table(slew, load)
        assert table.values.min() - 1e-9 <= value <= table.values.max() + 1e-9

    @slow
    @given(monotone_tables(), st.floats(0.5, 100.0), st.floats(0.1, 50.0),
           st.floats(0.0, 20.0))
    def test_monotone_in_load(self, table, slew, load, delta):
        assert table(slew, load + delta) >= table(slew, load) - 1e-9

    @slow
    @given(monotone_tables())
    def test_exact_at_grid_points(self, table):
        for i, s in enumerate(table.slews_ps):
            for j, c in enumerate(table.loads_ff):
                assert table(float(s), float(c)) == \
                    pytest.approx(table.values[i, j])


# ---------------------------------------------------------------------------
# RC trees
# ---------------------------------------------------------------------------
@st.composite
def random_rc_trees(draw):
    n = draw(st.integers(2, 12))
    tree = RCTree(root=0)
    for node in range(1, n):
        parent = draw(st.integers(0, node - 1))
        res = draw(st.floats(0.01, 5.0))
        cap = draw(st.floats(0.0, 3.0))
        tree.add_edge(parent, node, res)
        tree.add_cap(node, cap)
    return tree


class TestRCTreeProperties:
    @slow
    @given(random_rc_trees())
    def test_delays_non_negative_and_finite(self, tree):
        for node, delay in tree.elmore_ps().items():
            assert 0.0 <= delay < float("inf")

    @slow
    @given(random_rc_trees())
    def test_child_delay_at_least_parent(self, tree):
        delays = tree.elmore_ps()
        parents = tree.spanning_tree()
        for node, (parent, _res) in parents.items():
            assert delays[node] >= delays[parent] - 1e-12

    @slow
    @given(random_rc_trees())
    def test_total_cap_is_sum(self, tree):
        assert tree.total_cap_ff == pytest.approx(sum(tree.cap_ff.values()))

    @slow
    @given(random_rc_trees(), st.floats(1.1, 3.0))
    def test_delay_scales_with_resistance(self, tree, k):
        base = tree.elmore_ps()
        scaled = RCTree(root=tree.root)
        scaled.cap_ff = dict(tree.cap_ff)
        seen = set()
        for a, neighbors in tree.adj.items():
            for b, res in neighbors:
                key = (min(a, b), max(a, b))
                if key in seen:
                    continue
                seen.add(key)
                scaled.add_edge(a, b, res * k)
        for node, delay in scaled.elmore_ps().items():
            assert delay == pytest.approx(base[node] * k, rel=1e-6)


# ---------------------------------------------------------------------------
# Pin redistribution
# ---------------------------------------------------------------------------
class TestRedistributionProperties:
    @slow
    @given(fraction=st.floats(0.0, 1.0), seed=st.integers(0, 10))
    def test_fraction_achieved(self, ffet_lib, fraction, seed):
        from repro.cells import redistribute_input_pins

        lib = redistribute_input_pins(ffet_lib, fraction, seed=seed)
        assert lib.backside_input_fraction() == pytest.approx(
            fraction, abs=0.03)


# ---------------------------------------------------------------------------
# Router connectivity
# ---------------------------------------------------------------------------
@st.composite
def net_specs(draw):
    n_nets = draw(st.integers(1, 12))
    specs = []
    for i in range(n_nets):
        terminals = draw(st.lists(
            st.tuples(st.integers(0, 7), st.integers(0, 7)),
            min_size=1, max_size=5, unique=True))
        specs.append(NetSpec(f"n{i}", Side.FRONT, terminals))
    return specs


def _connected(route):
    if len(route.terminals) < 2:
        return True
    adj = {}
    for a, b in route.edges:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    seen = {route.terminals[0]}
    stack = [route.terminals[0]]
    while stack:
        node = stack.pop()
        for nxt in adj.get(node, ()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return all(t in seen for t in route.terminals)


class TestRouterProperties:
    @slow
    @given(net_specs())
    def test_all_nets_connected(self, specs):
        tech = make_ffet_node()
        grid = RoutingGrid(side=Side.FRONT, cols=8, rows=8, gcell_nm=480.0,
                           layers=tech.routing_layers(Side.FRONT))
        grid.cap_h = np.full((8, 7), 6.0)
        grid.cap_v = np.full((7, 8), 6.0)
        result = GlobalRouter(grid).route_all(specs)
        for spec in specs:
            route = result.routes[spec.name]
            assert _connected(route)

    @slow
    @given(net_specs())
    def test_wirelength_at_least_hpwl(self, specs):
        tech = make_ffet_node()
        grid = RoutingGrid(side=Side.FRONT, cols=8, rows=8, gcell_nm=480.0,
                           layers=tech.routing_layers(Side.FRONT))
        grid.cap_h = np.full((8, 7), 50.0)
        grid.cap_v = np.full((7, 8), 50.0)
        result = GlobalRouter(grid).route_all(specs)
        for spec in specs:
            xs = [t[0] for t in spec.terminals]
            ys = [t[1] for t in spec.terminals]
            hpwl = (max(xs) - min(xs)) + (max(ys) - min(ys))
            assert result.routes[spec.name].wirelength_gcells >= hpwl


# ---------------------------------------------------------------------------
# Adder equivalence
# ---------------------------------------------------------------------------
class TestAdderProperties:
    @slow
    @given(x=st.integers(0, 255), y=st.integers(0, 255), carry=st.booleans())
    def test_fast_adder_matches_arithmetic(self, ffet_lib, x, y, carry):
        from repro.synth import NetlistBuilder

        b = NetlistBuilder("t")
        a_in = b.inputs("a", 8)
        c_in = b.inputs("c", 8)
        cin = b.tie(carry)
        s, cout = b.fast_adder(a_in, c_in, cin=cin)
        b.outputs(s, "s")
        b.output(cout, "co")
        b.netlist.bind(ffet_lib)
        inputs = {f"a[{i}]": bool((x >> i) & 1) for i in range(8)}
        inputs |= {f"c[{i}]": bool((y >> i) & 1) for i in range(8)}
        v = b.netlist.simulate(ffet_lib, inputs)
        total = sum(int(v[f"s[{i}]"]) << i for i in range(8))
        total += int(v["co"]) << 8
        assert total == x + y + int(carry)
