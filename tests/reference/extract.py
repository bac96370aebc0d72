"""Scalar oracles for extraction and the fanout wireload model.

:class:`RCTree` is a dict graph with one Python call per segment end;
:func:`extract_net` builds one net's tree from its routed segments and
solves it with :meth:`RCTree.elmore_ps`.  :func:`extract_nets` has the
signature of ``repro.extract.extract._extract_nets``, which builds every
net's RC forest as flat arrays and solves it in one pass.

:func:`estimate_parasitics` is the per-net wireload builder that
``repro.extract.estimate_parasitics`` replaced with array arithmetic,
plus the HPWL model from a placement that only tests use.
:func:`from_nets` assembles an extraction from per-net records.

Every floating-point operation happens in the kernel's order.  The
per-net totals add left to right from 0.0 in explicit loops, because
``builtins.sum`` over floats is a compensated sum on Python >= 3.12.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Hashable, Iterable

import numpy as np

from repro.extract import Extraction
from repro.extract.extract import VIA_RES_KOHM
from repro.extract.rc import NetParasitics


def from_nets(nets: Iterable[NetParasitics]) -> Extraction:
    """The :class:`Extraction` of these per-net records, in their order:
    the inverse of building ``extraction[net]`` for every net."""
    nets = list(nets)

    def column(values, dtype=float) -> np.ndarray:
        return np.array(list(values), dtype=dtype)

    return Extraction(
        names=[p.net for p in nets],
        wire_cap_ff=column(p.wire_cap_ff for p in nets),
        wire_res_kohm=column(p.wire_res_kohm for p in nets),
        pin_cap_ff=column(p.pin_cap_ff for p in nets),
        wirelength_nm=column(p.wirelength_nm for p in nets),
        back_wirelength_nm=column(p.back_wirelength_nm for p in nets),
        via_count=column((p.via_count for p in nets), np.intp),
        sinks=[pin for p in nets for pin in p.sink_elmore_ps],
        sink_net=np.repeat(np.arange(len(nets)),
                           [len(p.sink_elmore_ps) for p in nets]),
        sink_elmore_ps=column(
            d for p in nets for d in p.sink_elmore_ps.values()))


@dataclass
class RCTree:
    """A grounded-capacitance RC network rooted at the driver node.

    Built as a graph; loops (overlapping route segments) are tolerated —
    Elmore evaluation uses a BFS spanning tree from the root, which is
    the standard conservative treatment.
    """

    root: Hashable
    cap_ff: dict[Hashable, float] = field(default_factory=dict)
    adj: dict[Hashable, list[tuple[Hashable, float]]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.cap_ff.setdefault(self.root, 0.0)
        self.adj.setdefault(self.root, [])

    def add_node(self, node: Hashable, cap_ff: float = 0.0) -> None:
        self.cap_ff[node] = self.cap_ff.get(node, 0.0) + cap_ff
        self.adj.setdefault(node, [])

    def add_cap(self, node: Hashable, cap_ff: float) -> None:
        self.add_node(node, cap_ff)

    def add_edge(self, a: Hashable, b: Hashable, res_kohm: float) -> None:
        self.add_node(a)
        self.add_node(b)
        self.adj[a].append((b, res_kohm))
        self.adj[b].append((a, res_kohm))

    @property
    def total_cap_ff(self) -> float:
        total = 0.0
        for cap in self.cap_ff.values():
            total += cap
        return total

    def spanning_tree(self) -> dict[Hashable, tuple[Hashable, float]]:
        """BFS parents: node -> (parent, edge resistance)."""
        parents: dict[Hashable, tuple[Hashable, float]] = {}
        seen = {self.root}
        queue = deque([self.root])
        while queue:
            node = queue.popleft()
            for neighbor, res in self.adj[node]:
                if neighbor in seen:
                    continue
                seen.add(neighbor)
                parents[neighbor] = (node, res)
                queue.append(neighbor)
        return parents

    def elmore_ps(self) -> dict[Hashable, float]:
        """Elmore delay (ps) from the root to every reachable node."""
        parents = self.spanning_tree()
        children: dict[Hashable, list[Hashable]] = {}
        for node, (parent, _res) in parents.items():
            children.setdefault(parent, []).append(node)

        # Post-order subtree capacitance.
        subtree_cap: dict[Hashable, float] = {}
        order: list[Hashable] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            order.append(node)
            stack.extend(children.get(node, ()))
        for node in reversed(order):
            cap = self.cap_ff.get(node, 0.0)
            for child in children.get(node, ()):
                cap += subtree_cap[child]
            subtree_cap[node] = cap

        # Pre-order delay accumulation.
        delay: dict[Hashable, float] = {self.root: 0.0}
        for node in order:
            for child in children.get(node, ()):
                _parent, res = parents[child]
                delay[child] = delay[node] + res * subtree_cap[child]
        return delay

    def is_connected(self, node: Hashable) -> bool:
        if node == self.root:
            return True
        return node in self.spanning_tree()


def net_tree(net_name, segments, stackup, driver_xy, sinks,
             rc_scale=1.0) -> tuple[NetParasitics, RCTree]:
    """One net's RC tree and the parasitics solved from it."""
    root = ("root",)
    tree = RCTree(root=root)

    endpoints: list[tuple[float, float]] = []
    wirelength = 0.0
    back_wirelength = 0.0
    wire_res = 0.0
    max_level = 0
    for seg in segments:
        layer = stackup[seg.layer]
        max_level = max(max_level, layer.index)
        length_um = seg.length_nm / 1000.0
        wirelength += seg.length_nm
        if seg.layer.startswith("BM"):
            back_wirelength += seg.length_nm
        wire_res += layer.resistance_kohm_per_um * seg.length_nm / 1000.0
        r = layer.resistance_kohm_per_um * length_um * rc_scale
        c = layer.capacitance_ff_per_um * length_um * rc_scale
        a = (round(seg.x1_nm), round(seg.y1_nm))
        b = (round(seg.x2_nm), round(seg.y2_nm))
        tree.add_cap(a, c / 2.0)
        tree.add_cap(b, c / 2.0)
        if a != b:
            tree.add_edge(a, b, max(r, 1e-6))
        endpoints.append((seg.x1_nm, seg.y1_nm))
        endpoints.append((seg.x2_nm, seg.y2_nm))
    wire_res = rc_scale * wire_res

    def nearest(xy):
        """The rounded endpoint at the first minimum Manhattan distance."""
        best = min(
            range(len(endpoints)),
            key=lambda i: abs(endpoints[i][0] - xy[0]) + abs(endpoints[i][1] - xy[1]),
        )
        e = endpoints[best]
        return (round(e[0]), round(e[1]))

    # Via stack from the pins (M0) up to the routing tier.
    stack_r = VIA_RES_KOHM * max(max_level, 1) if segments else 0.0

    if driver_xy is not None and endpoints:
        tree.add_edge(root, nearest(driver_xy), stack_r)

    sink_keys: dict[tuple[str, str], tuple] = {}
    pin_cap = 0.0
    for i, (inst, pin, cap, xy) in enumerate(sinks):
        pin_cap += cap
        key = ("sink", i)
        tree.add_edge(nearest(xy) if endpoints else root, key, stack_r)
        tree.add_cap(key, cap)
        sink_keys[(inst, pin)] = key

    delays = tree.elmore_ps()
    parasitics = NetParasitics(
        net=net_name,
        wire_cap_ff=tree.total_cap_ff - pin_cap,
        wire_res_kohm=wire_res,
        pin_cap_ff=pin_cap,
        sink_elmore_ps={pin: delays.get(key, 0.0)
                        for pin, key in sink_keys.items()},
        wirelength_nm=wirelength,
        via_count=len(sinks) * max_level,
        back_wirelength_nm=back_wirelength,
    )
    return parasitics, tree


def extract_net(net_name, segments, stackup, driver_xy, sinks,
                rc_scale=1.0) -> NetParasitics:
    """Extract one net from its routed segments.

    ``sinks`` rows are (instance, pin, pin cap, (x, y)).  ``rc_scale``
    derates wire R and C for congestion.
    """
    return net_tree(net_name, segments, stackup, driver_xy, sinks,
                    rc_scale)[0]


def extract_nets(stackup, nets) -> tuple[Extraction, int]:
    """One :func:`net_tree` per net.

    Same signature and result as ``repro.extract.extract._extract_nets``:
    the extraction, nets in input order, and the total RC node count.
    """
    out, nodes = [], 0
    for name, segments, driver_xy, sinks, rc_scale in nets:
        parasitics, tree = net_tree(name, segments, stackup, driver_xy,
                                    sinks, rc_scale)
        out.append(parasitics)
        nodes += len(tree.cap_ff)
    return from_nets(out), nodes


def estimate_parasitics(netlist, library, placement=None,
                        cap_per_um_ff=0.22, res_per_um_kohm=0.55,
                        fanout_length_um=0.70) -> Extraction:
    """Pre-route wireload estimate, one :class:`NetParasitics` per net.

    Without a placement, the fanout wireload model of
    ``repro.extract.estimate_parasitics``; with one, net length is the
    HPWL of the net's pins.
    """
    nets = []
    for net_name, net in netlist.nets.items():
        sink_pins = [(inst, pin,
                      library[netlist.instances[inst].master].pin(pin).cap_ff)
                     for inst, pin in net.sinks]
        if placement is not None:
            points = placement.net_points(netlist, net_name)
            if len(points) >= 2:
                xs = [p.x_nm for p in points]
                ys = [p.y_nm for p in points]
                length_um = ((max(xs) - min(xs)) + (max(ys) - min(ys))) / 1000.0
            else:
                length_um = 0.0
        else:
            length_um = fanout_length_um * max(len(sink_pins), 1)
        wire_cap = cap_per_um_ff * length_um
        wire_res = res_per_um_kohm * length_um
        pin_cap = 0.0
        for _inst, _pin, cap in sink_pins:
            pin_cap += cap
        # Lumped-pi estimate: every sink sees half the wire RC.
        elmore = 0.5 * wire_res * (wire_cap + pin_cap)
        nets.append(NetParasitics(
            net=net_name,
            wire_cap_ff=wire_cap,
            wire_res_kohm=wire_res,
            pin_cap_ff=pin_cap,
            sink_elmore_ps={(i, p): elmore for i, p, _c in sink_pins},
            wirelength_nm=length_um * 1000.0,
        ))
    return from_nets(nets)
