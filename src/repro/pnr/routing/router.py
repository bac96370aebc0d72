"""Congestion-driven global router with rip-up-and-reroute.

Each net is first routed as a Steiner-lite tree (Manhattan MST over its
terminals, each MST edge realized as the less congested of the two
L-shapes).  Overflowed nets are then ripped up and rerouted with a
maze router whose cost includes present congestion and a negotiated-
congestion history term, for a fixed number of iterations.

The maze search settles a shortest-distance field over the net's
search box with directional min-plus (fast-sweeping) relaxations
(:func:`_dist_field`), and a deterministic backtrack turns the field
into the route.  With strictly positive edge costs the fixed point is
unique — every distance is the minimum over paths of the
left-associated IEEE-754 sum of edge costs — so it is bit-identical to
the scalar Dijkstra oracle in ``tests/reference/routing.py``;
``tests/test_kernel_equivalence.py`` pins this.

The result keeps per-net trees (unit gcell edges), so RC extraction can
build a real RC tree per net, and reports overflow as a DRV count — the
paper's validity criterion is fewer than 10 DRVs (Section IV).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ...core.errors import RoutingError
from ...core.telemetry import current_tracer
from ...tech import Side
from .grid import RoutingGrid

#: Cost multiplier for routing through an over-capacity edge.
OVERFLOW_PENALTY = 30.0
#: Weight of the accumulated history cost (negotiated congestion).
HISTORY_WEIGHT = 3.0
#: Rip-up-and-reroute iterations.
DEFAULT_RRR_ITERATIONS = 8

Coord = tuple[int, int]  # (col, row)
Edge = tuple[Coord, Coord]  # normalized: first < second


def _norm_edge(a: Coord, b: Coord) -> Edge:
    return (a, b) if a <= b else (b, a)


@dataclass
class NetSpec:
    """A routing request: one net on one wafer side."""

    name: str
    side: Side
    terminals: list[Coord]

    def __post_init__(self) -> None:
        self.terminals = sorted(set(self.terminals))


@dataclass
class NetRoute:
    """The routed tree of one net."""

    name: str
    side: Side
    terminals: list[Coord]
    edges: set[Edge] = field(default_factory=set)

    @property
    def wirelength_gcells(self) -> int:
        return len(self.edges)

    def h_steps(self) -> int:
        return sum(1 for (a, b) in self.edges if a[1] == b[1])

    def v_steps(self) -> int:
        return sum(1 for (a, b) in self.edges if a[0] == b[0])

    def bends(self) -> int:
        """Direction changes, a proxy for via count inside the tree."""
        by_node: dict[Coord, list[bool]] = {}
        for a, b in self.edges:
            horizontal = a[1] == b[1]
            by_node.setdefault(a, []).append(horizontal)
            by_node.setdefault(b, []).append(horizontal)
        return sum(
            1 for dirs in by_node.values()
            if len(set(dirs)) > 1
        )


@dataclass
class RoutingResult:
    """All routed nets on one side plus congestion statistics."""

    side: Side
    grid: RoutingGrid
    routes: dict[str, NetRoute]
    overflow_edges: int
    total_overflow: float
    iterations: int
    #: Final edge usage (same shapes as the grid capacity arrays).
    usage_h: np.ndarray | None = None
    usage_v: np.ndarray | None = None

    def congestion_of(self, net_name: str) -> float:
        """Mean usage/capacity ratio along one net's route (0 if empty)."""
        if self.usage_h is None or self.usage_v is None:
            return 0.0
        route = self.routes.get(net_name)
        if route is None or not route.edges:
            return 0.0
        total = 0.0
        for (c1, r1), (c2, r2) in route.edges:
            if r1 == r2:
                idx = (r1, min(c1, c2))
                total += self.usage_h[idx] / max(self.grid.cap_h[idx], 1e-6)
            else:
                idx = (min(r1, r2), c1)
                total += self.usage_v[idx] / max(self.grid.cap_v[idx], 1e-6)
        return total / len(route.edges)

    @property
    def drv_count(self) -> int:
        """DRV proxy: overflowed gcell edges plus pin-access violations."""
        return self.overflow_edges + self.grid.pin_access_drvs

    @property
    def total_wirelength_nm(self) -> float:
        return sum(r.wirelength_gcells for r in self.routes.values()) * \
            self.grid.gcell_nm


class GlobalRouter:
    """Routes a set of nets on one grid."""

    def __init__(self, grid: RoutingGrid,
                 rrr_iterations: int = DEFAULT_RRR_ITERATIONS) -> None:
        self.grid = grid
        self.rrr_iterations = rrr_iterations
        self.usage_h = np.zeros_like(grid.cap_h)
        self.usage_v = np.zeros_like(grid.cap_v)
        self.history_h = np.zeros_like(grid.cap_h)
        self.history_v = np.zeros_like(grid.cap_v)

    # -- edge bookkeeping ---------------------------------------------------
    def _edge_arrays(self, edge: Edge):
        (c1, r1), (c2, r2) = edge
        if r1 == r2:  # horizontal step
            return self.usage_h, self.grid.cap_h, self.history_h, (r1, min(c1, c2))
        return self.usage_v, self.grid.cap_v, self.history_v, (min(r1, r2), c1)

    def _edge_cost(self, edge: Edge) -> float:
        usage, cap, history, idx = self._edge_arrays(edge)
        cost = 1.0 + HISTORY_WEIGHT * history[idx]
        if usage[idx] + 1 > cap[idx]:
            cost += OVERFLOW_PENALTY * (usage[idx] + 1 - cap[idx])
        return cost

    def _commit(self, edges: set[Edge], delta: int) -> None:
        for edge in edges:
            usage, _cap, _hist, idx = self._edge_arrays(edge)
            usage[idx] += delta

    # -- initial pattern routing ----------------------------------------------
    def _mst_pairs(self, terminals: list[Coord]) -> list[tuple[Coord, Coord]]:
        """Prim's MST under Manhattan distance."""
        if len(terminals) < 2:
            return []
        in_tree = [terminals[0]]
        rest = set(terminals[1:])
        pairs = []
        best: dict[Coord, tuple[int, Coord]] = {
            t: (abs(t[0] - terminals[0][0]) + abs(t[1] - terminals[0][1]),
                terminals[0])
            for t in rest
        }
        while rest:
            t = min(rest, key=lambda t: best[t][0])
            dist, anchor = best[t]
            pairs.append((anchor, t))
            rest.remove(t)
            in_tree.append(t)
            for other in rest:
                d = abs(other[0] - t[0]) + abs(other[1] - t[1])
                if d < best[other][0]:
                    best[other] = (d, t)
        return pairs

    def _l_route(self, a: Coord, b: Coord) -> set[Edge]:
        """The cheaper of the two L-shaped connections a->b."""
        def path_edges(corner: Coord) -> set[Edge]:
            edges = set()
            for p, q in ((a, corner), (corner, b)):
                if p[0] == q[0]:
                    for r in range(min(p[1], q[1]), max(p[1], q[1])):
                        edges.add(_norm_edge((p[0], r), (p[0], r + 1)))
                else:
                    for c in range(min(p[0], q[0]), max(p[0], q[0])):
                        edges.add(_norm_edge((c, p[1]), (c + 1, p[1])))
            return edges

        option1 = path_edges((b[0], a[1]))
        option2 = path_edges((a[0], b[1]))
        if a[0] == b[0] or a[1] == b[1]:
            return option1
        # Added left to right, never with the compensated builtins.sum
        # of Python >= 3.12: a last-bit difference could flip the tie.
        cost1 = cost2 = 0.0
        for e in option1:
            cost1 += self._edge_cost(e)
        for e in option2:
            cost2 += self._edge_cost(e)
        return option1 if cost1 <= cost2 else option2

    def _initial_route(self, spec: NetSpec) -> NetRoute:
        route = NetRoute(spec.name, spec.side, spec.terminals)
        for a, b in self._mst_pairs(spec.terminals):
            route.edges |= self._l_route(a, b)
        return route

    # -- maze rerouting -----------------------------------------------------
    def _cost_fields(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-edge maze costs as dense arrays (same shapes as cap_h/v).

        Bit-compatible with :meth:`_edge_cost`: ``(1.0 + W*h) +
        P*((u+1)-cap)`` in that exact operation order, with the penalty
        term only where ``u+1 > cap`` (adding the ``0.0`` branch of the
        ``where`` preserves the base value exactly).
        """
        def one(usage: np.ndarray, cap: np.ndarray,
                history: np.ndarray) -> np.ndarray:
            base = 1.0 + HISTORY_WEIGHT * history
            lack = (usage + 1) - cap
            return base + np.where(lack > 0, OVERFLOW_PENALTY * lack, 0.0)

        return (one(self.usage_h, self.grid.cap_h, self.history_h),
                one(self.usage_v, self.grid.cap_v, self.history_v))

    def _maze_route(self, spec: NetSpec) -> NetRoute:
        """Grow a tree from the first terminal to all others.

        The search is bounded to the net's bounding box plus a detour
        margin, which keeps rip-up-and-reroute fast on large grids.
        """
        route = NetRoute(spec.name, spec.side, spec.terminals)
        xs = [t[0] for t in spec.terminals]
        ys = [t[1] for t in spec.terminals]
        margin = 6
        box = (max(min(xs) - margin, 0), max(min(ys) - margin, 0),
               min(max(xs) + margin, self.grid.cols - 1),
               min(max(ys) + margin, self.grid.rows - 1))
        # Usage and history are constant for the duration of one maze
        # route (commits happen outside), so the cost field is too.
        cost_h, cost_v = self._cost_fields()
        tree_nodes: set[Coord] = {spec.terminals[0]}
        for target in spec.terminals[1:]:
            if target in tree_nodes:
                continue
            path = self._wavefront(tree_nodes, target, box, cost_h, cost_v)
            for a, b in zip(path, path[1:]):
                route.edges.add(_norm_edge(a, b))
            tree_nodes.update(path)
        return route

    def _wavefront(self, sources: set[Coord], target: Coord,
                   box: tuple[int, int, int, int],
                   cost_h: np.ndarray, cost_v: np.ndarray) -> list[Coord]:
        """Multi-source shortest path inside ``box`` via a distance field.

        :func:`_dist_field` settles the field (see the module docstring
        for why the fixed point is unique); the backtrack is
        deterministic.
        """
        x0, y0, x1, y1 = box
        tracer = current_tracer()
        if tracer.enabled:
            tracer.count("kernel.route.searches")
            tracer.count("kernel.route.nodes",
                         (y1 - y0 + 1) * (x1 - x0 + 1))
        dist = _dist_field(sources, box, cost_h, cost_v, tracer)
        if not np.isfinite(dist[target[1] - y0, target[0] - x0]):
            raise RoutingError(f"maze routing failed to reach {target}",
                               "routing")
        return self._backtrack(dist, target, box, cost_h, cost_v)

    def _backtrack(self, dist: np.ndarray, target: Coord,
                   box: tuple[int, int, int, int],
                   cost_h: np.ndarray, cost_v: np.ndarray) -> list[Coord]:
        """Walk the settled field from ``target`` back to a source.

        Deterministic: neighbors are probed in a fixed order and
        accepted on *exact* float equality ``dist[u] + cost ==
        dist[v]`` — always satisfiable at the fixed point, and
        strictly decreasing, so the walk terminates at a zero-distance
        source.
        """
        x0, y0, x1, y1 = box
        path = [target]
        node = target
        while dist[node[1] - y0, node[0] - x0] != 0.0:
            c, r = node
            here = dist[r - y0, c - x0]
            for nxt in ((c + 1, r), (c - 1, r), (c, r + 1), (c, r - 1)):
                if not (x0 <= nxt[0] <= x1 and y0 <= nxt[1] <= y1):
                    continue
                there = dist[nxt[1] - y0, nxt[0] - x0]
                if not np.isfinite(there):
                    continue
                if nxt[1] == r:
                    step = cost_h[r, min(c, nxt[0])]
                else:
                    step = cost_v[min(r, nxt[1]), c]
                if there + step == here:
                    node = nxt
                    path.append(node)
                    break
            else:  # pragma: no cover - fixed-point invariant violated
                raise RoutingError(
                    f"backtrack stuck at {node} routing to {target}",
                    "routing")
        return list(reversed(path))

    # -- top level ------------------------------------------------------------
    def route_all(self, specs: list[NetSpec]) -> RoutingResult:
        # Short nets first: they have the least flexibility.
        ordered = sorted(
            specs,
            key=lambda s: (_hpwl(s.terminals), s.name),
        )
        routes: dict[str, NetRoute] = {}
        for spec in ordered:
            route = self._initial_route(spec)
            self._commit(route.edges, +1)
            routes[spec.name] = route
        spec_by_name = {s.name: s for s in specs}

        iterations = 0
        with current_tracer().span("kernel.route.search"):
            for iteration in range(self.rrr_iterations):
                overflow_edges = self._overflowed_edges()
                if not overflow_edges:
                    break
                if iteration >= 2 and len(overflow_edges) > 100:
                    # Hopelessly over capacity: the run is invalid whatever
                    # further negotiation does; do not burn minutes on it.
                    iterations = iteration
                    break
                iterations = iteration + 1
                self.history_h += np.maximum(self.usage_h - self.grid.cap_h, 0) * 0.5
                self.history_v += np.maximum(self.usage_v - self.grid.cap_v, 0) * 0.5
                victims = [
                    name for name, route in routes.items()
                    if route.edges & overflow_edges
                ]
                # Longest victims reroute first: they have the most detours.
                victims.sort(key=lambda n: -len(routes[n].edges))
                for name in victims:
                    self._commit(routes[name].edges, -1)
                    new_route = self._maze_route(spec_by_name[name])
                    self._commit(new_route.edges, +1)
                    routes[name] = new_route

        over_h = np.maximum(self.usage_h - self.grid.cap_h, 0)
        over_v = np.maximum(self.usage_v - self.grid.cap_v, 0)
        return RoutingResult(
            side=self.grid.side,
            grid=self.grid,
            routes=routes,
            overflow_edges=int((over_h > 0).sum() + (over_v > 0).sum()),
            total_overflow=float(over_h.sum() + over_v.sum()),
            iterations=iterations,
            usage_h=self.usage_h,
            usage_v=self.usage_v,
        )

    def _overflowed_edges(self) -> set[Edge]:
        edges: set[Edge] = set()
        over_h = self.usage_h > self.grid.cap_h
        for r, c in zip(*np.nonzero(over_h)):
            edges.add(_norm_edge((int(c), int(r)), (int(c) + 1, int(r))))
        over_v = self.usage_v > self.grid.cap_v
        for r, c in zip(*np.nonzero(over_v)):
            edges.add(_norm_edge((int(c), int(r)), (int(c), int(r) + 1)))
        return edges


def _dist_field(sources: set[Coord], box: tuple[int, int, int, int],
                cost_h: np.ndarray, cost_v: np.ndarray,
                tracer) -> np.ndarray:
    """Shortest distance from ``sources`` to every gcell of ``box``.

    Directional min-plus sweeps to the fixed point: each pass relaxes
    whole rows/columns at once in the four sweep directions (the
    fast-sweeping method); paths with ``k`` direction reversals
    converge within ``k`` passes, so congested detours typically settle
    in two or three.
    """
    x0, y0, x1, y1 = box
    h = y1 - y0 + 1
    w = x1 - x0 + 1
    dist = np.full((h, w), np.inf)
    for c, r in sources:
        if x0 <= c <= x1 and y0 <= r <= y1:
            dist[r - y0, c - x0] = 0.0
    ch = cost_h[y0:y1 + 1, x0:x1]    # (h, w - 1)
    cv = cost_v[y0:y1, x0:x1 + 1]    # (h - 1, w)
    sweeps = 0
    while True:
        before = dist.copy()
        for c in range(1, w):        # west -> east
            np.minimum(dist[:, c], dist[:, c - 1] + ch[:, c - 1],
                       out=dist[:, c])
        for c in range(w - 2, -1, -1):   # east -> west
            np.minimum(dist[:, c], dist[:, c + 1] + ch[:, c],
                       out=dist[:, c])
        for r in range(1, h):        # south -> north
            np.minimum(dist[r], dist[r - 1] + cv[r - 1],
                       out=dist[r])
        for r in range(h - 2, -1, -1):   # north -> south
            np.minimum(dist[r], dist[r + 1] + cv[r],
                       out=dist[r])
        sweeps += 1
        if np.array_equal(before, dist):
            break
    if tracer.enabled:
        tracer.count("kernel.route.sweeps", sweeps)
    return dist


def _hpwl(terminals: list[Coord]) -> int:
    xs = [t[0] for t in terminals]
    ys = [t[1] for t in terminals]
    return (max(xs) - min(xs)) + (max(ys) - min(ys))
