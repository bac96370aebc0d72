"""Numeric-equivalence harness: every hot kernel against its oracle.

Each vectorized kernel in ``src/`` has a scalar oracle, either in
``src/`` itself (where production still calls it) or in
``tests/reference/``; this suite pins their agreement with
property-based tests.

Tolerance policy (also in docs/performance.md): kernel and oracle are
*operation-order compatible* — every floating-point accumulation
happens in the same order in both — so the pinned tolerance is **zero
ULP everywhere**:

* **NLDM interpolation** — :class:`TableStack` vs scalar
  :class:`LookupTable` calls: bit-equal;
* **Elmore delay** — :func:`elmore_forest` vs per-tree
  :meth:`RCTree.elmore_ps`: bit-equal;
* **maze routing** — min-plus sweeps and the Dijkstra oracle settle the
  same shortest-distance field (unique fixed point under strictly
  positive costs), so the deterministic backtrack gives identical
  routes, wirelength and overflow;
* **analytic placement** — the scatter/gather sweep and the scalar loop
  accumulate in entry order: identical coordinates.

Any intentional future divergence must loosen the assertion here *and*
document the new tolerance, in the same change.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cells import LookupTable
from repro.extract.rc import RCTree, elmore_forest
from repro.pnr import FloorplanSpec, global_place, plan_floor
from repro.pnr import placement as placement_mod
from repro.pnr.routing import router as router_mod
from repro.pnr.routing.grid import RoutingGrid
from repro.pnr.routing.router import GlobalRouter, NetSpec
from repro.sta.nldm import TableStack
from repro.tech import Side

from . import reference

slow = settings(max_examples=25,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

NULL_TRACER = type("NullTracer", (), {"enabled": False})()


# ---------------------------------------------------------------------------
# NLDM lookup-table interpolation
# ---------------------------------------------------------------------------
@st.composite
def lookup_tables(draw):
    slews = sorted(draw(st.lists(
        st.floats(0.5, 100.0), min_size=2, max_size=6, unique=True)))
    loads = sorted(draw(st.lists(
        st.floats(0.1, 50.0), min_size=2, max_size=6, unique=True)))
    values = draw(st.lists(
        st.lists(st.floats(0.01, 500.0),
                 min_size=len(loads), max_size=len(loads)),
        min_size=len(slews), max_size=len(slews)))
    return LookupTable(np.array(slews), np.array(loads), np.array(values))


class TestNldmStackEquivalence:
    @slow
    @given(st.lists(lookup_tables(), min_size=1, max_size=4),
           st.lists(st.tuples(st.floats(0.0, 150.0), st.floats(0.0, 80.0)),
                    min_size=1, max_size=12))
    def test_stack_matches_scalar_bitwise(self, tables, queries):
        stack = TableStack()
        refs = [stack.add(t) for t in tables]
        n = len(queries)
        for t, (gid, row) in zip(tables, refs):
            gids = np.full(n, gid)
            rows = np.full(n, row)
            slews = np.array([q[0] for q in queries])
            loads = np.array([q[1] for q in queries])
            batch = stack.evaluate(gids, rows, slews, loads)
            for k, (slew, load) in enumerate(queries):
                assert batch[k] == t(slew, load)

    @slow
    @given(st.lists(lookup_tables(), min_size=1, max_size=4),
           st.lists(st.tuples(st.floats(0.0, 150.0), st.floats(0.0, 80.0)),
                    min_size=1, max_size=6))
    def test_row_axis_broadcasts_over_every_group(self, tables, queries):
        """One (group, row) per lane and a leading row axis on the
        slews and loads only, as STA's sample rows query the stack."""
        stack = TableStack()
        refs = np.array([stack.add(t) for t in tables])
        slews = np.array([[q[0]] * len(tables) for q in queries])
        loads = np.array([[q[1]] * len(tables) for q in queries])
        batch = stack.evaluate(refs[:, 0], refs[:, 1], slews, loads)
        for r, (slew, load) in enumerate(queries):
            for k, t in enumerate(tables):
                assert batch[r, k] == t(slew, load)

    def test_add_is_idempotent_and_groups_shared_axes(self):
        axes = (np.array([1.0, 2.0]), np.array([0.5, 1.5]))
        t1 = LookupTable(axes[0], axes[1], np.array([[1.0, 2.0], [3.0, 4.0]]))
        t2 = LookupTable(axes[0], axes[1], np.array([[5.0, 6.0], [7.0, 8.0]]))
        stack = TableStack()
        assert stack.add(t1) == stack.add(t1)
        g1, _ = stack.add(t1)
        g2, _ = stack.add(t2)
        assert g1 == g2 and stack.single_group


# ---------------------------------------------------------------------------
# Elmore delay over RC forests
# ---------------------------------------------------------------------------
@st.composite
def rc_trees(draw):
    n = draw(st.integers(1, 25))
    tree = RCTree(root=0)
    tree.add_cap(0, draw(st.floats(0.0, 5.0)))
    for i in range(1, n):
        parent = draw(st.integers(0, i - 1))
        tree.add_edge(parent, i, draw(st.floats(1e-6, 3.0)))
        tree.add_cap(i, draw(st.floats(0.0, 5.0)))
    if n > 3 and draw(st.booleans()):
        # A loop edge: Elmore must fall back to the BFS spanning tree.
        tree.add_edge(0, n - 1, draw(st.floats(1e-6, 3.0)))
    return tree


class TestElmoreForestEquivalence:
    @slow
    @given(st.lists(rc_trees(), min_size=1, max_size=6))
    def test_forest_matches_scalar_bitwise(self, trees):
        batch = elmore_forest(trees)
        for tree, forest in zip(trees, batch):
            scalar = tree.elmore_ps()
            assert set(scalar) == set(forest)
            for node, delay in scalar.items():
                assert forest[node] == delay

    @slow
    @given(st.lists(rc_trees(), min_size=1, max_size=4))
    def test_wanted_restriction(self, trees):
        wanted = [list(t.cap_ff)[::2] + ["absent"] for t in trees]
        batch = elmore_forest(trees, wanted=wanted)
        for tree, want, taps in zip(trees, wanted, batch):
            scalar = tree.elmore_ps()
            for node in want:
                if node in scalar:
                    assert taps[node] == scalar[node]
                else:
                    assert node not in taps


# ---------------------------------------------------------------------------
# Maze-routing distance fields and routes
# ---------------------------------------------------------------------------
@st.composite
def congested_routers(draw):
    rows = draw(st.integers(3, 14))
    cols = draw(st.integers(3, 14))
    grid = RoutingGrid(side=Side.FRONT, cols=cols, rows=rows,
                       gcell_nm=480.0, layers=[])
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    grid.cap_h = rng.integers(0, 3, size=(rows, cols - 1)).astype(float)
    grid.cap_v = rng.integers(0, 3, size=(rows - 1, cols)).astype(float)
    router = GlobalRouter(grid)
    router.usage_h = rng.integers(0, 4, size=grid.cap_h.shape).astype(float)
    router.usage_v = rng.integers(0, 4, size=grid.cap_v.shape).astype(float)
    router.history_h = rng.random(grid.cap_h.shape) * 2
    router.history_v = rng.random(grid.cap_v.shape) * 2
    n_terms = draw(st.integers(2, 5))
    terminals = set()
    while len(terminals) < n_terms:
        terminals.add((int(rng.integers(0, cols)), int(rng.integers(0, rows))))
    return router, NetSpec("n", Side.FRONT, sorted(terminals))


class TestMazeKernelEquivalence:
    @slow
    @given(congested_routers())
    def test_distance_fields_bitwise_equal(self, case):
        router, spec = case
        cost_h, cost_v = router._cost_fields()
        box = (0, 0, router.grid.cols - 1, router.grid.rows - 1)
        sources = set(spec.terminals[:-1])
        d_ref = reference.routing.dist_field(sources, box, cost_h, cost_v,
                                             NULL_TRACER)
        d_np = router_mod._dist_field(sources, box, cost_h, cost_v,
                                      NULL_TRACER)
        assert np.array_equal(d_ref, d_np)

    @slow
    @given(congested_routers())
    def test_maze_routes_identical(self, case):
        router, spec = case
        route_np = router._maze_route(spec)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(router_mod, "_dist_field", reference.routing.dist_field)
            route_ref = router._maze_route(spec)
        assert route_ref.edges == route_np.edges

    @slow
    @given(congested_routers())
    def test_route_all_wirelength_and_overflow_identical(self, case):
        router, spec = case
        # Fresh routers (route_all owns usage/history), same grid.
        np_ = GlobalRouter(router.grid).route_all([spec])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(router_mod, "_dist_field", reference.routing.dist_field)
            ref = GlobalRouter(router.grid).route_all([spec])
        assert ref.total_wirelength_nm == np_.total_wirelength_nm
        assert ref.overflow_edges == np_.overflow_edges
        assert ref.total_overflow == np_.total_overflow
        assert {n: r.edges for n, r in ref.routes.items()} == \
            {n: r.edges for n, r in np_.routes.items()}

    @slow
    @given(congested_routers())
    def test_cost_fields_match_scalar_edge_cost(self, case):
        router, _spec = case
        cost_h, cost_v = router._cost_fields()
        rows, cols = router.grid.rows, router.grid.cols
        for r in range(rows):
            for c in range(cols - 1):
                edge = ((c, r), (c + 1, r))
                assert cost_h[r, c] == router._edge_cost(edge)
        for r in range(rows - 1):
            for c in range(cols):
                edge = ((c, r), (c, r + 1))
                assert cost_v[r, c] == router._edge_cost(edge)


# ---------------------------------------------------------------------------
# Kernel trace counters: deterministic across process-pool fan-out
# ---------------------------------------------------------------------------
class TestKernelCounterJobsParity:
    def test_counters_identical_at_jobs_1_and_4(self, tmp_path):
        """``kernel.*`` counters measure the workload, not the harness:
        fanning the same sweep over a process pool must reproduce the
        serial totals exactly."""
        from repro.core import FlowConfig, SweepRunner

        from .golden_cases import MultiplierFactory

        configs = [FlowConfig(utilization=u) for u in (0.46, 0.51, 0.56)]
        totals = {}
        for jobs in (1, 4):
            runner = SweepRunner(jobs=jobs, trace_dir=tmp_path / str(jobs))
            runner.run_many(MultiplierFactory(5), configs)
            totals[jobs] = {
                name: value
                for name, value in runner.stats.counters.items()
                if name.startswith("kernel.")
            }
        assert totals[1], "no kernel.* counters traced"
        assert totals[1] == totals[4]


# ---------------------------------------------------------------------------
# Analytic placement field/gradient sweeps
# ---------------------------------------------------------------------------
@st.composite
def incidence_lists(draw):
    """Random star-model inputs shaped like ``global_place`` builds them:
    every net has at least one member, anchors are zero where a net has
    no pad, and cells without nets (or pinned macros) stay put."""
    n = draw(st.integers(1, 30))
    n_nets = draw(st.integers(1, 20))
    entries = []
    for net in range(n_nets):
        members = draw(st.sets(st.integers(0, n - 1), min_size=1,
                               max_size=min(n, 8)))
        entries.extend((net, cell) for cell in sorted(members))
    entries = draw(st.permutations(entries))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    e_net = np.array([e[0] for e in entries], dtype=np.intp)
    e_cell = np.array([e[1] for e in entries], dtype=np.intp)
    w_net = rng.random(n_nets) + 0.05
    has_pad = rng.random(n_nets) < 0.3
    anchor_x = np.where(has_pad, rng.random(n_nets) * 5e4, 0.0)
    anchor_y = np.where(has_pad, rng.random(n_nets) * 5e4, 0.0)
    net_size = np.zeros(n_nets)
    np.add.at(net_size, e_net, 1.0)
    net_size += has_pad
    cell_weight = np.zeros(n)
    np.add.at(cell_weight, e_cell, w_net[e_net])
    movable = (cell_weight > 0) & (rng.random(n) < 0.9)
    xs = rng.random(n) * 5e4
    ys = rng.random(n) * 5e4
    return xs, ys, (e_net, e_cell, w_net, anchor_x, anchor_y, net_size,
                    cell_weight, movable)


class TestPlacementKernelEquivalence:
    @slow
    @given(incidence_lists(), st.integers(1, 4))
    def test_relax_sweep_matches_reference_bitwise(self, case, sweeps):
        xs, ys, args = case
        ref_x, ref_y = xs.copy(), ys.copy()
        for _ in range(sweeps):
            placement_mod._relax_sweep(xs, ys, *args)
            reference.placement.relax_sweep(ref_x, ref_y, *args)
        assert xs.tobytes() == ref_x.tobytes()
        assert ys.tobytes() == ref_y.tobytes()

    @pytest.mark.parametrize("seed", [0, 3])
    def test_global_place_identical_coordinates(self, ffet_lib, mult4, seed,
                                                monkeypatch):
        die = plan_floor(mult4, ffet_lib, FloorplanSpec(0.7))
        p_np = global_place(mult4, ffet_lib, die, seed=seed)
        monkeypatch.setattr(placement_mod, "_relax_sweep",
                            reference.placement.relax_sweep)
        p_ref = global_place(mult4, ffet_lib, die, seed=seed)
        assert set(p_ref.locations) == set(p_np.locations)
        for name, point in p_ref.locations.items():
            other = p_np.locations[name]
            assert (point.x_nm, point.y_nm) == (other.x_nm, other.y_nm)
