"""Dual-sided RC extraction from the merged DEF (Section III.C).

Per net, the routed segments (frontside and backside layers together)
form an RC graph: each segment contributes resistance and capacitance
from its layer's Table-II-derived constants, plus via resistance where
the net climbs from the cell pins (M0) to its routing tier.  Sinks
attach at their cell locations with their pin capacitance; the driver
is the root.  The result feeds STA (Elmore wire delays, driver loads)
and power (switched capacitance).

Both extraction and the synthesis-time wireload model write one
:class:`Extraction`: per-net arrays plus one sink table, which STA,
hold, power and the Monte-Carlo engine read by net name.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass

import numpy as np

from ..cells import Library
from ..core.telemetry import current_tracer
from ..lefdef.def_ import DefDesign
from ..netlist import Netlist
from ..pnr.placement import Placement, pin_point
from ..tech import Stackup
from .rc import NetParasitics

#: Resistance of one via cut between adjacent metal levels, kOhm.
VIA_RES_KOHM = 0.035


def _gather(values: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``values[rows]``, reading 0.0 where a row is -1 (absent)."""
    return np.append(values, 0.0)[rows]


@dataclass(eq=False)
class Extraction(Mapping):
    """All per-net parasitics of a design: per-net arrays, one sink table.

    Row ``k`` of every per-net array is net ``names[k]``, and ``row``
    maps a name to its row.  Sink ``s`` is the ``(instance, pin)``
    ``sinks[s]`` of net row ``sink_net[s]``, with wire-only Elmore delay
    ``sink_elmore_ps[s]``; sinks run in net-row order, each net's in its
    sink order.

    STA, power and the Monte-Carlo engine read it by net name through
    :meth:`loads_ff`, :meth:`elmore_ps` and :meth:`back_fraction`; a net
    it lacks, or a sink no longer on that net, reads 0.0.  As a mapping
    from net name, ``extraction[net]`` builds that net's
    :class:`NetParasitics` (Python floats and ints) on demand for SPEF,
    path reports and tests; ``in``, ``len`` and iteration follow
    ``names``.
    """

    names: list[str]
    wire_cap_ff: np.ndarray
    wire_res_kohm: np.ndarray
    pin_cap_ff: np.ndarray
    wirelength_nm: np.ndarray
    #: Wirelength on backside (BM*) layers, nm.
    back_wirelength_nm: np.ndarray
    via_count: np.ndarray
    sinks: list[tuple[str, str]]
    sink_net: np.ndarray
    sink_elmore_ps: np.ndarray

    def __post_init__(self) -> None:
        self.row = {name: k for k, name in enumerate(self.names)}

    def __getitem__(self, net: str) -> NetParasitics:
        k = self.row[net]
        lo, hi = np.searchsorted(self.sink_net, (k, k + 1)).tolist()
        return NetParasitics(
            net=net,
            wire_cap_ff=float(self.wire_cap_ff[k]),
            wire_res_kohm=float(self.wire_res_kohm[k]),
            pin_cap_ff=float(self.pin_cap_ff[k]),
            sink_elmore_ps=dict(zip(self.sinks[lo:hi],
                                    self.sink_elmore_ps[lo:hi].tolist())),
            wirelength_nm=float(self.wirelength_nm[k]),
            via_count=int(self.via_count[k]),
            back_wirelength_nm=float(self.back_wirelength_nm[k]))

    def __contains__(self, net: object) -> bool:
        return net in self.row

    def __iter__(self):
        return iter(self.names)

    def __len__(self) -> int:
        return len(self.names)

    @property
    def total_wire_cap_ff(self) -> float:
        """Wire cap of every net, added left to right from 0.0."""
        return float(np.add.accumulate(np.append(0.0, self.wire_cap_ff))[-1])

    def _rows(self, names: Iterable[str]) -> np.ndarray:
        """Each net's row, -1 where the net has no parasitics."""
        row = self.row
        return np.array([row.get(name, -1) for name in names], dtype=np.intp)

    def loads_ff(self, names: Iterable[str], factors=None) -> np.ndarray:
        """(R, nets) driver loads of ``names`` under R rows of wire-RC
        factors.

        Row r's load of net k is ``wire_cap * factors[r, k] + pin_cap``,
        the ``total_cap_ff`` of a copy of this extraction with that
        net's wire RC scaled by the factor.  ``None`` is one unscaled
        row.
        """
        rows = self._rows(names)
        wire = _gather(self.wire_cap_ff, rows)
        pin = _gather(self.pin_cap_ff, rows)
        if factors is None:
            return (wire + pin)[None, :]
        return wire * factors + pin

    def back_fraction(self, names: Iterable[str]) -> np.ndarray:
        """Each net's :attr:`NetParasitics.back_fraction`: its share of
        wirelength on backside layers, 0.0 for an unrouted net."""
        rows = self._rows(names)
        length = _gather(self.wirelength_nm, rows)
        return np.minimum(np.divide(
            _gather(self.back_wirelength_nm, rows), length,
            out=np.zeros(len(rows)), where=length > 0), 1.0)

    def elmore_ps(self, names: list[str], sinks: list[tuple[str, str]],
                  sink_net: np.ndarray) -> np.ndarray:
        """Nominal wire delay to every sink of another sink table.

        The table (``names``, ``sinks``, ``sink_net``) is laid out as
        this extraction's own, typically a netlist's current sinks; a
        sink whose net has no such sink here reads 0.0.  A table equal
        to this one, as every extraction of an unchanged netlist has,
        reads ``sink_elmore_ps`` itself.
        """
        if names == self.names and sinks == self.sinks \
                and np.array_equal(sink_net, self.sink_net):
            return self.sink_elmore_ps
        here = self.names
        at = {(inst, pin, here[k]): s for s, ((inst, pin), k) in
              enumerate(zip(self.sinks, self.sink_net.tolist()))}
        return _gather(self.sink_elmore_ps, np.array(
            [at.get((inst, pin, names[k]), -1) for (inst, pin), k in
             zip(sinks, sink_net.tolist())], dtype=np.intp))


def _starts(counts: np.ndarray) -> np.ndarray:
    """Where each of consecutive runs of ``counts`` items starts."""
    return np.cumsum(counts) - counts


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(start, start + count)`` per (start, count)."""
    return np.arange(int(counts.sum())) \
        + np.repeat(starts - _starts(counts), counts)


def _net_sums(n_nets: int, net: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Per-net totals, added left to right from 0.0 in index order.

    ``np.add.at`` applies its updates one at a time in index order, so
    each total is the plain loop's; ``np.sum`` and ``np.add.reduceat``
    add pairwise, and ``builtins.sum`` is compensated on Python >= 3.12.
    """
    out = np.zeros(n_nets)
    np.add.at(out, net, values)
    return out


def _extract_nets(stackup: Stackup, nets: list[tuple]
                  ) -> tuple[Extraction, int]:
    """Extract many nets as one flat RC forest, solved in one pass.

    ``nets`` rows are ``(name, segments, driver_xy, sinks, rc_scale)``,
    with ``sinks`` rows ``(instance, pin, pin cap, (x, y))``; ``rc_scale``
    derates wire R and C for congestion.  Returns the extraction, nets
    in input order, and the number of RC nodes.

    A net's nodes are its root (the driver), its segment endpoints
    rounded to the nm grid in order of first appearance, then one node
    per sink.  Each segment puts half its capacitance on either end and,
    if the ends differ, its resistance between them.  The driver and
    each sink hang off the endpoint nearest to their pin (the first
    minimum of the Manhattan distance) through the via stack from M0 to
    the net's top level; without segments the sinks hang off the root.
    Elmore delay runs over the BFS spanning forest from the roots, so
    loops are tolerated; a sink the root cannot reach reads 0.0.
    """
    n_nets = len(nets)
    layers = list(stackup)
    layer_id = {layer.name: i for i, layer in enumerate(layers)}
    lay_r = np.array([layer.resistance_kohm_per_um for layer in layers])
    lay_c = np.array([layer.capacitance_ff_per_um for layer in layers])
    lay_level = np.array([layer.index for layer in layers], dtype=np.intp)
    lay_back = np.array([layer.name.startswith("BM") for layer in layers])

    # -- per segment ---------------------------------------------------
    n_seg = np.array([len(net[1]) for net in nets], dtype=np.intp)
    scale = np.array([net[4] for net in nets], dtype=float)
    segs = [seg for net in nets for seg in net[1]]
    seg_net = np.repeat(np.arange(n_nets), n_seg)
    seg_layer = np.array([layer_id[seg.layer] for seg in segs], dtype=np.intp)
    xy = np.array([(seg.x1_nm, seg.y1_nm, seg.x2_nm, seg.y2_nm)
                   for seg in segs], dtype=float).reshape(-1, 4)
    length = np.abs(xy[:, 2] - xy[:, 0]) + np.abs(xy[:, 3] - xy[:, 1])
    length_um = length / 1000.0
    r = lay_r[seg_layer] * length_um * scale[seg_net]
    c = lay_c[seg_layer] * length_um * scale[seg_net]

    wirelength = _net_sums(n_nets, seg_net, length)
    back = lay_back[seg_layer]
    back_wirelength = _net_sums(n_nets, seg_net[back], length[back])
    wire_res = scale * _net_sums(n_nets, seg_net,
                                 lay_r[seg_layer] * length / 1000.0)
    max_level = np.zeros(n_nets, dtype=np.intp)
    np.maximum.at(max_level, seg_net, lay_level[seg_layer])
    # Via stack from the pins (M0) up to the routing tier.
    stack_r = np.where(n_seg > 0, VIA_RES_KOHM * np.maximum(max_level, 1), 0.0)

    # -- nodes ---------------------------------------------------------
    # Endpoints a0, b0, a1, b1, ...; one node per distinct rounded point
    # of a net, numbered by first appearance (the stable sort keeps the
    # first occurrence at the head of each run).
    ex, ey = xy[:, 0::2].ravel(), xy[:, 1::2].ravel()
    ep_net = np.repeat(seg_net, 2)
    rx, ry = np.round(ex).astype(np.int64), np.round(ey).astype(np.int64)
    order = np.lexsort((ry, rx, ep_net))
    head = np.ones(len(order), dtype=bool)
    head[1:] = ((np.diff(ep_net[order]) != 0) | (np.diff(rx[order]) != 0)
                | (np.diff(ry[order]) != 0))
    first = order[head]
    rank = np.empty(len(first), dtype=np.intp)
    rank[np.argsort(first)] = np.arange(len(first))
    ep_group = np.empty(len(order), dtype=np.intp)
    ep_group[order] = rank[np.cumsum(head) - 1]
    n_points = np.bincount(ep_net[first], minlength=n_nets)

    sinks = [sink for net in nets for sink in net[3]]
    n_sink = np.array([len(net[3]) for net in nets], dtype=np.intp)
    sink_net = np.repeat(np.arange(n_nets), n_sink)
    sink_cap = np.array([sink[2] for sink in sinks], dtype=float)
    sink_xy = np.array([sink[3] for sink in sinks], dtype=float).reshape(-1, 2)

    per_net = 1 + n_points + n_sink
    root = _starts(per_net)
    n_nodes = int(per_net.sum())
    ep_node = ep_group + (root + 1 - _starts(n_points))[ep_net]
    sink_node = np.arange(len(sinks)) \
        + (root + 1 + n_points - _starts(n_sink))[sink_net]

    cap = np.zeros(n_nodes)
    np.add.at(cap, ep_node, np.repeat(c / 2.0, 2))
    np.add.at(cap, sink_node, sink_cap)
    node_net = np.repeat(np.arange(n_nets), per_net)
    pin_cap = _net_sums(n_nets, sink_net, sink_cap)
    wire_cap = _net_sums(n_nets, node_net, cap) - pin_cap

    # -- nearest endpoint of every driver and sink ---------------------
    has_driver = np.array([net[2] is not None for net in nets], dtype=bool)
    drv_net = np.flatnonzero(has_driver & (n_seg > 0))
    drv_xy = np.array([nets[i][2] for i in drv_net.tolist()],
                      dtype=float).reshape(-1, 2)
    wired = np.flatnonzero(n_seg[sink_net] > 0)
    pin_net = np.concatenate([drv_net, sink_net[wired]])
    pin_xy = np.concatenate([drv_xy, sink_xy[wired]])
    counts = 2 * n_seg[pin_net]
    cand = _ranges(2 * _starts(n_seg)[pin_net], counts)
    pair_pin = np.repeat(np.arange(len(pin_net)), counts)
    dist = np.abs(ex[cand] - pin_xy[pair_pin, 0]) \
        + np.abs(ey[cand] - pin_xy[pair_pin, 1])
    attach = np.empty(len(pin_net), dtype=np.intp)
    if len(dist):
        least = np.minimum.reduceat(dist, _starts(counts))
        hit = np.flatnonzero(dist == least[pair_pin])
        lead = np.ones(len(hit), dtype=bool)
        lead[1:] = pair_pin[hit[1:]] != pair_pin[hit[:-1]]
        attach = ep_node[cand[hit[lead]]]
    sink_attach = root[sink_net]
    sink_attach[wired] = attach[len(drv_net):]

    # -- edges, adjacency in insertion order ---------------------------
    a_node, b_node = ep_node[0::2], ep_node[1::2]
    wire = a_node != b_node
    src = np.concatenate([a_node[wire], root[drv_net], sink_attach])
    dst = np.concatenate([b_node[wire], attach[:len(drv_net)], sink_node])
    res = np.concatenate([np.maximum(r[wire], 1e-6), stack_r[drv_net],
                          stack_r[sink_net]])
    half_src = np.stack([src, dst], axis=1).ravel()
    by_src = np.argsort(half_src, kind="stable")
    adj_src = half_src[by_src]
    adj_dst = np.stack([dst, src], axis=1).ravel()[by_src]
    adj_res = np.repeat(res, 2)[by_src]
    degree = np.bincount(half_src, minlength=n_nodes)
    adj_start = _starts(degree)

    # -- BFS from every root at once, one level per step ---------------
    # A level keeps the first occurrence of each newly reached node:
    # the parents and discovery order of a FIFO BFS per net.
    parent = np.full(n_nodes, -1, dtype=np.intp)
    edge_res = np.zeros(n_nodes)
    seen = np.zeros(n_nodes, dtype=bool)
    seen[root] = True
    levels = []
    frontier = root
    while True:
        pos = _ranges(adj_start[frontier], degree[frontier])
        pos = pos[~seen[adj_dst[pos]]]
        if not len(pos):
            break
        _, firsts = np.unique(adj_dst[pos], return_index=True)
        pos = pos[np.sort(firsts)]
        frontier = adj_dst[pos]
        seen[frontier] = True
        parent[frontier] = adj_src[pos]
        edge_res[frontier] = adj_res[pos]
        levels.append(frontier)

    # -- Elmore: subtree caps bottom-up, delays top-down ---------------
    with current_tracer().span("kernel.extract.elmore"):
        sub = cap.copy()
        for level in reversed(levels):
            np.add.at(sub, parent[level], sub[level])
        delay = np.zeros(n_nodes)
        for level in levels:
            delay[level] = delay[parent[level]] \
                + edge_res[level] * sub[level]

    return Extraction(
        names=[net[0] for net in nets], wire_cap_ff=wire_cap,
        wire_res_kohm=wire_res, pin_cap_ff=pin_cap, wirelength_nm=wirelength,
        back_wirelength_nm=back_wirelength, via_count=n_sink * max_level,
        sinks=[(sink[0], sink[1]) for sink in sinks], sink_net=sink_net,
        sink_elmore_ps=delay[sink_node]), n_nodes


def extract_design(merged: DefDesign, netlist: Netlist, library: Library,
                   placement: Placement,
                   rc_derates: dict[str, float] | None = None) -> Extraction:
    """Extract every net of a routed design from its merged DEF.

    ``rc_derates`` maps net names to congestion derate factors >= 1
    (see :func:`congestion_derates`).
    """
    rc_derates = rc_derates or {}
    tracer = current_tracer()
    nets = []
    for net_name, net in netlist.nets.items():
        if net.driver is not None:
            drv_master = library[netlist.instances[net.driver[0]].master]
            p = pin_point(placement, drv_master, *net.driver)
            driver_xy = (p.x_nm, p.y_nm)
        else:
            pad = placement.io_pins.get(net_name)
            driver_xy = (pad.x_nm, pad.y_nm) if pad else None
        sinks = []
        for inst, pin in net.sinks:
            master = library[netlist.instances[inst].master]
            p = pin_point(placement, master, inst, pin)
            sinks.append((inst, pin, master.pin(pin).cap_ff, (p.x_nm, p.y_nm)))
        nets.append((net_name, merged.nets.get(net_name, []), driver_xy,
                     sinks, rc_derates.get(net_name, 1.0)))
    extraction, n_nodes = _extract_nets(library.tech.stackup, nets)
    if tracer.enabled:
        tracer.count("kernel.extract.nets", len(nets))
        tracer.count("kernel.extract.nodes", n_nodes)
    return extraction


#: Congestion level below which detailed routing is unaffected.
CONGESTION_DERATE_FLOOR = 0.25
#: Wire RC increase per unit of congestion above the floor.
CONGESTION_DERATE_SLOPE = 2.0


def congestion_derates(routing_results: dict) -> dict[str, float]:
    """Per-net RC derates from global-routing congestion.

    Detailed routing in crowded regions detours and suffers coupling;
    commercial extraction sees that as higher wire RC.  The derate is
    linear in the mean usage/capacity along the net's route, above a
    floor, taking the worst of the two wafer sides.
    """
    derates: dict[str, float] = {}
    for result in routing_results.values():
        for net_name in result.routes:
            ratio = result.congestion_of(net_name)
            factor = 1.0 + CONGESTION_DERATE_SLOPE * max(
                0.0, ratio - CONGESTION_DERATE_FLOOR)
            if factor > derates.get(net_name, 1.0):
                derates[net_name] = factor
    return derates


def estimate_parasitics(netlist: Netlist, library: Library,
                        cap_per_um_ff: float = 0.22,
                        res_per_um_kohm: float = 0.55,
                        fanout_length_um: float = 0.70) -> Extraction:
    """Pre-route fanout wireload model (for synthesis-time sizing).

    Like a synthesis tool's wireload table: a net with n sinks is
    ``fanout_length_um * max(n, 1)`` long, and every sink sees half its
    wire RC (lumped pi), ``0.5 * R * (wire cap + pin caps)``.  One pass
    gathers the sink pin caps; the rest is array arithmetic, with each
    net's pin caps added left to right from 0.0.
    """
    nets = netlist.nets.values()
    instances = netlist.instances
    sinks = [pin for net in nets for pin in net.sinks]
    keys = [(instances[inst].master, pin) for inst, pin in sinks]
    caps = {key: library[key[0]].pin(key[1]).cap_ff for key in set(keys)}
    n_sink = np.array([len(net.sinks) for net in nets], dtype=np.intp)
    sink_net = np.repeat(np.arange(len(n_sink)), n_sink)
    length_um = fanout_length_um * np.maximum(n_sink, 1)
    wire_cap = cap_per_um_ff * length_um
    wire_res = res_per_um_kohm * length_um
    pin_cap = _net_sums(len(n_sink), sink_net,
                        np.array([caps[key] for key in keys], dtype=float))
    elmore = 0.5 * wire_res * (wire_cap + pin_cap)
    return Extraction(
        names=list(netlist.nets), wire_cap_ff=wire_cap,
        wire_res_kohm=wire_res, pin_cap_ff=pin_cap,
        wirelength_nm=length_um * 1000.0,
        back_wirelength_nm=np.zeros(len(n_sink)),
        via_count=np.zeros(len(n_sink), dtype=np.intp), sinks=sinks,
        sink_net=sink_net, sink_elmore_ps=elmore[sink_net])


def estimate_loads(netlist: Netlist, library: Library) -> dict[str, float]:
    """Driver load per net under the fanout wireload model: a view of
    :func:`estimate_parasitics`'s per-net arrays."""
    extraction = estimate_parasitics(netlist, library)
    return dict(zip(extraction.names, (extraction.wire_cap_ff
                                       + extraction.pin_cap_ff).tolist()))
