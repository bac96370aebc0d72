"""Numeric-equivalence harness: every hot kernel against its oracle.

Each vectorized kernel in ``src/`` has a scalar oracle, in
``tests/reference/`` or, for NLDM interpolation, in ``src/`` itself
(production still calls it); this suite pins their agreement with
property-based tests.

Tolerance policy (also in docs/performance.md): kernel and oracle are
*operation-order compatible* — every floating-point accumulation
happens in the same order in both — so the pinned tolerance is **zero
ULP everywhere**:

* **NLDM interpolation** — :class:`TableStack` vs scalar
  :class:`LookupTable` calls: bit-equal;
* **extraction** — ``repro.extract.extract._extract_nets`` (one flat RC
  forest, one Elmore pass) vs one ``RCTree`` per net
  (``tests/reference/extract.py``): every ``NetParasitics`` field, the
  sink order and the node count bit-equal, on random nets and on whole
  routed designs; the fanout wireload model's arrays vs its per-net
  builder (tests/test_parasitics_layout.py), likewise;
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
from repro.core import FlowConfig, Tracer, telemetry
from repro.core.flow import run_flow
from repro.extract import congestion_derates, extract_design
from repro.extract import extract as extract_mod
from repro.lefdef import RouteSegment
from repro.pnr import FloorplanSpec, global_place, plan_floor
from repro.pnr import placement as placement_mod
from repro.pnr.routing import router as router_mod
from repro.pnr.routing.grid import RoutingGrid
from repro.pnr.routing.router import GlobalRouter, NetSpec
from repro.sta.nldm import TableStack
from repro.synth import RiscvConfig, generate_riscv_core, generate_rv16_sram
from repro.tech import Side, build_stackup

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


def _axis(draw, n: int) -> list[float]:
    """``n`` strictly increasing points from a start at, below or
    above zero (-0.0 included)."""
    start = draw(st.sampled_from([0.0, -0.0, -3.0, 0.5, 2.0]))
    points = [start]
    for step in draw(st.lists(st.floats(0.25, 40.0), min_size=n - 1,
                              max_size=n - 1)):
        points.append(points[-1] + step)
    return points


def _queries(axis: list[float]):
    """Values on and past both ends of ``axis``, zeros of both signs,
    infinities and NaN, or anywhere around it."""
    lo, hi = axis[0], axis[-1]
    return st.sampled_from([lo, hi, lo - 1.0, hi + 1.0, 0.0, -0.0,
                            np.inf, -np.inf, np.nan]) \
        | st.floats(lo - 5.0, hi + 5.0)


@st.composite
def shared_axis_stacks(draw):
    """2-6 tables on one non-square (slews, loads) axis pair, values
    zeros of both signs included, and 1-12 queries."""
    k = draw(st.integers(2, 6))
    m = draw(st.integers(2, 6).filter(lambda v: v != k))
    slews, loads = _axis(draw, k), _axis(draw, m)
    value = st.floats(-50.0, 500.0) | st.sampled_from([0.0, -0.0])
    tables = [LookupTable(np.array(slews), np.array(loads), np.array(
        draw(st.lists(st.lists(value, min_size=m, max_size=m),
                      min_size=k, max_size=k))))
              for _ in range(draw(st.integers(2, 6)))]
    queries = draw(st.lists(st.tuples(_queries(slews), _queries(loads)),
                            min_size=1, max_size=12))
    return tables, queries


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

    @slow
    @given(shared_axis_stacks())
    def test_shared_axes_stack_matches_scalar_bitwise(self, case):
        """Tables on one non-square axis pair share one group, so lanes
        read rows past 0 of a (k, m) stack with k != m: a wrong row or
        column stride reads another cell or table.  Every bit agrees,
        signed zeros and NaN included, on and past both axis ends."""
        tables, queries = case
        stack = TableStack()
        refs = np.array([stack.add(t) for t in tables])
        assert stack.single_group
        assert refs[:, 1].tolist() == list(range(len(tables)))
        slews = np.array([[q[0]] * len(tables) for q in queries])
        loads = np.array([[q[1]] * len(tables) for q in queries])
        got = stack.evaluate(refs[:, 0], refs[:, 1], slews, loads)
        want = np.array([[t(slew, load) for t in tables]
                         for slew, load in queries])
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()

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
# Extraction: the flat RC forest against one RC graph per net
# ---------------------------------------------------------------------------
STACKUPS = {arch: build_stackup(arch) for arch in ("ffet", "cfet")}

#: Coordinates on a coarse grid with offsets around the half-nm, so
#: distinct points round onto one node (half to even) and pins sit at
#: equal distances from several endpoints.
coords = st.builds(lambda k, f: 40.0 * k + f, st.integers(0, 3),
                   st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.5, 2.5, -0.5]))
points = st.tuples(coords, coords)


@st.composite
def routed_nets(draw):
    """``_extract_nets`` inputs: one stackup and a few nets, some with
    no driver, no segments or 32 and more endpoints.  A net's segments
    join points of a small pool, which makes zero-length and duplicate
    segments, loops and nodes reached twice in one BFS level."""
    arch = draw(st.sampled_from(sorted(STACKUPS)))
    names = [layer.name for layer in STACKUPS[arch]]
    # Half the segments on a level <= 0, so whole nets sit below M1.
    layers = st.sampled_from(names) | st.sampled_from(
        [layer.name for layer in STACKUPS[arch] if layer.index <= 0])
    nets = []
    for n in range(draw(st.integers(1, 5))):
        pool = draw(st.lists(points, min_size=1, max_size=8))
        ends = st.sampled_from(pool)
        segments = [RouteSegment(draw(layers),
                                 *draw(ends), *draw(ends))
                    for _ in range(draw(st.integers(0, 6)
                                        | st.integers(16, 22)))]
        pins = ends | points
        driver_xy = draw(st.none() | pins)
        sinks = [(f"u{draw(st.integers(0, 3))}", draw(st.sampled_from("AB")),
                  draw(st.floats(0.0, 5.0)), draw(pins))
                 for _ in range(draw(st.integers(0, 6)))]
        rc_scale = draw(st.just(1.0) | st.floats(1.0, 3.0))
        nets.append((f"n{n}", segments, driver_xy, sinks, rc_scale))
    return STACKUPS[arch], nets


def parasitics_bits(p):
    """Every field of a ``NetParasitics``, floats by ``float.hex``, with
    the sink dict as an ordered list."""
    return (p.net, p.wire_cap_ff.hex(), p.wire_res_kohm.hex(),
            p.pin_cap_ff.hex(), p.wirelength_nm.hex(),
            p.back_wirelength_nm.hex(), p.via_count,
            [(pin, delay.hex()) for pin, delay in p.sink_elmore_ps.items()])


class TestExtractionEquivalence:
    @settings(max_examples=100)
    @given(routed_nets())
    def test_arrays_match_per_net_oracle_bitwise(self, case):
        stackup, nets = case
        got, got_nodes = extract_mod._extract_nets(stackup, nets)
        want, want_nodes = reference.extract.extract_nets(stackup, nets)
        assert got_nodes == want_nodes
        assert [parasitics_bits(p) for p in got.values()] == \
            [parasitics_bits(p) for p in want.values()]

    @pytest.mark.parametrize("design,config", [
        ("rv8", FlowConfig()),
        ("rv8_sram", FlowConfig()),
        ("rv8", FlowConfig(arch="cfet", back_layers=0,
                           backside_pin_fraction=0.0)),
        ("rv8", FlowConfig(front_layers=3, back_layers=3)),
    ], ids=["rv8", "rv8_sram", "rv8_cfet", "rv8_fm3bm3"])
    def test_routed_design_matches_oracle(self, design, config, monkeypatch):
        factory = {
            "rv8": lambda: generate_riscv_core(
                RiscvConfig(xlen=8, nregs=8, name="rv8")),
            "rv8_sram": lambda: generate_rv16_sram(
                xlen=8, nregs=8, words=16, name="rv8_sram"),
        }[design]
        art = run_flow(factory, config, return_artifacts=True,
                       stop_after="def_merge")
        args = (art.merged_def, art.netlist, art.library, art.placement,
                congestion_derates(art.routing_results))

        def extract():
            tracer = Tracer()
            with telemetry.activate(tracer):
                extraction = extract_design(*args)
            return ([parasitics_bits(p) for p in extraction.values()],
                    tracer.finish().counters["kernel.extract.nodes"])

        got = extract()
        monkeypatch.setattr(extract_mod, "_extract_nets",
                            reference.extract.extract_nets)
        assert got == extract()


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
