"""Scalar oracles for STA: the graph's batch builder, propagation, the
clock walk, hold, parasitics gathers, RC scaling."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.cells import TimingArc
from repro.extract import Extraction
from repro.extract.rc import NetParasitics
from repro.sta import FAST_CORNER_DERATE, HoldReport
from repro.sta.sta import (PRIMARY_INPUT_SLEW_PS, SLEW_DEGRADATION, _NEG,
                           _graph_for, _LevelBatch, _Parasitics)

from .extract import from_nets


@dataclass
class PinTiming:
    """Rise/fall arrivals and slews at one net (at its driver pin)."""

    arrival_rise_ps: float = _NEG
    arrival_fall_ps: float = _NEG
    slew_rise_ps: float = PRIMARY_INPUT_SLEW_PS
    slew_fall_ps: float = PRIMARY_INPUT_SLEW_PS

    @classmethod
    def at_time(cls, t_ps: float, slew_ps: float = PRIMARY_INPUT_SLEW_PS):
        return cls(t_ps, t_ps, slew_ps, slew_ps)

    def arrival(self, rise: bool) -> float:
        return self.arrival_rise_ps if rise else self.arrival_fall_ps

    def slew(self, rise: bool) -> float:
        return self.slew_rise_ps if rise else self.slew_fall_ps

    def set_edge(self, rise: bool, arrival: float, slew: float) -> None:
        if rise:
            self.arrival_rise_ps = arrival
            self.slew_rise_ps = slew
        else:
            self.arrival_fall_ps = arrival
            self.slew_fall_ps = slew

    def delayed(self, wire_ps: float) -> "PinTiming":
        """This timing seen after a wire segment of the given Elmore delay."""
        extra_slew = SLEW_DEGRADATION * wire_ps
        return PinTiming(
            self.arrival_rise_ps + wire_ps if self.arrival_rise_ps > _NEG / 2 else _NEG,
            self.arrival_fall_ps + wire_ps if self.arrival_fall_ps > _NEG / 2 else _NEG,
            self.slew_rise_ps + extra_slew,
            self.slew_fall_ps + extra_slew,
        )


def _candidates(master) -> tuple[list, list]:
    """The (arc index, input edge, delay table, transition table)
    candidates of the rise and of the fall output edge, in the order the
    scalar loop evaluates them: arcs in declaration order, and for a
    non-unate arc the rising input first."""
    rise, fall = [], []
    for ai, arc in enumerate(master.arcs):
        rise += [(ai, rise_in, arc.rise_delay, arc.rise_transition)
                 for rise_in in arc.input_edges_for(True)]
        fall += [(ai, rise_in, arc.fall_delay, arc.fall_transition)
                 for rise_in in arc.input_edges_for(False)]
    return rise, fall


def build_levels(graph, batches):
    """The per-lane batch builder: one candidate lane at a time.

    Same signature and result as ``TimingGraph._build_levels`` in
    ``repro.sta.sta``: each row reads its instance's connections and its
    master's arcs, numbers a wire slot per connected arc input as it
    goes, and registers two tables in ``graph.stack`` per lane.
    """
    graph.wire_sinks = []
    levels = [_build_level(graph, rows) for rows in batches]
    graph.wire_sinks = np.array(graph.wire_sinks, dtype=np.intp)
    pos = {i: (b, r) for b, lvl in enumerate(levels)
           for r, i in enumerate(lvl.rows.tolist())}
    graph.row_pos = np.array([pos[i] for i in range(len(pos))],
                             dtype=np.intp).reshape(-1, 2)
    return levels


def _build_level(graph, rows) -> _LevelBatch:
    instances, library = graph.netlist.instances, graph.library
    lvl = _LevelBatch()
    n = len(rows)
    lvl.rows = np.asarray(rows, dtype=np.intp)
    masters = [library[instances[graph.comb_names[i]].master]
               for i in lvl.rows.tolist()]
    cands = [_candidates(m) for m in masters]
    lvl.out_ids = np.array(
        [graph.net_id[instances[graph.comb_names[i]].connections[
            m.output_pins[0].name]] for i, m in zip(lvl.rows.tolist(),
                                                    masters)],
        dtype=np.intp)
    R = max((len(rise) for rise, _fall in cands), default=0)
    F = max((len(fall) for _rise, fall in cands), default=0)
    lvl.R, lvl.F = R, F
    P = R + F
    lvl.in_ids = np.zeros((n, P), dtype=np.intp)
    lvl.rise_in = np.zeros((n, P), dtype=bool)
    lvl.present = np.zeros((n, P), dtype=bool)
    lvl.gid_d = np.zeros((n, P), dtype=np.intp)
    lvl.row_d = np.zeros((n, P), dtype=np.intp)
    lvl.gid_t = np.zeros((n, P), dtype=np.intp)
    lvl.row_t = np.zeros((n, P), dtype=np.intp)
    lvl.arc_idx = np.full((n, P), -1, dtype=np.int32)
    lvl.wire_slot = np.zeros((n, P), dtype=np.intp)
    for r, i in enumerate(lvl.rows.tolist()):
        name = graph.comb_names[i]
        conn = instances[name].connections
        arc_info: list[tuple[int, int] | None] = []
        for arc in masters[r].arcs:
            in_net = conn.get(arc.from_pin)
            if in_net is None:
                arc_info.append(None)
                continue
            arc_info.append((graph.net_id[in_net], len(graph.wire_sinks)))
            graph.wire_sinks.append(graph.sink_at[name, arc.from_pin])
        for base, lanes in zip((0, R), cands[r]):
            for off, (ai, rise_in, dtab, ttab) in enumerate(lanes):
                info = arc_info[ai]
                if info is None:
                    continue
                nid, slot = info
                col = base + off
                lvl.in_ids[r, col] = nid
                lvl.rise_in[r, col] = rise_in
                lvl.present[r, col] = True
                lvl.arc_idx[r, col] = ai
                lvl.wire_slot[r, col] = slot
                lvl.gid_d[r, col], lvl.row_d[r, col] = graph.stack.add(dtab)
                lvl.gid_t[r, col], lvl.row_t[r, col] = graph.stack.add(ttab)
    return lvl


def _propagate_arc(arc: TimingArc, pt_in: PinTiming, load_ff: float,
                   out: PinTiming, stats: list | None = None) -> bool:
    """Fold one arc's contribution into the output timing.

    Returns True when this arc set a new worst output arrival.
    ``stats``, when given, counts delay-table evaluations in slot 0.
    """
    improved = False
    for rise_out in (True, False):
        for rise_in in arc.input_edges_for(rise_out):
            arrival_in = pt_in.arrival(rise_in)
            if arrival_in < _NEG / 2:
                continue
            slew_in = pt_in.slew(rise_in)
            if stats is not None:
                stats[0] += 1
            delay = arc.delay(slew_in, load_ff, rise=rise_out)
            arrival = arrival_in + delay
            if arrival > out.arrival(rise_out):
                out.set_edge(rise_out, arrival,
                             arc.transition(slew_in, load_ff, rise=rise_out))
                improved = True
    return improved


def propagate_comb(graph, batches, par, st, tracer):
    """Topological-order propagation, one scalar NLDM lookup at a time.

    Same signature and result as ``repro.sta.sta._propagate_comb``: for
    each row it reads the nets ``st`` timed or wrote on entry, times
    every instance of ``batches`` from the graph's netlist and library
    and the row's scaled parasitics, and writes the outputs and their
    provenance back into ``st``.
    """
    netlist, library = graph.netlist, graph.library
    extraction = par.extraction
    net_id = graph.net_id
    comb_row = {name: i for i, name in enumerate(graph.comb_names)}
    timing_now = {graph.comb_names[i] for lvl in batches
                  for i in lvl.rows.tolist()}
    order = [inst for inst in netlist.topological_order(library)
             if inst.name in timing_now]
    on_entry = st.timed | st.written
    stats = [0, 0] if tracer.enabled else None

    for r in range(par.rows):
        factors = None if par.factors is None else par.factors[r].tolist()

        def input_timing(net_name, inst, pin):
            p = extraction.get(net_name)
            wire = 0.0
            if p is not None:
                wire = p.elmore_to(inst, pin)
                if factors is not None:
                    wire = wire * factors[net_id[net_name]]
            return net_timing[net_name].delayed(wire)

        def net_load(net_name):
            p = extraction.get(net_name)
            if p is None:
                return 0.0
            if factors is None:
                return p.total_cap_ff
            return p.wire_cap_ff * factors[net_id[net_name]] + p.pin_cap_ff

        net_timing = {
            name: PinTiming(float(st.arr_r[r, i]), float(st.arr_f[r, i]),
                            float(st.slw_r[r, i]), float(st.slw_f[r, i]))
            for name, i in net_id.items() if on_entry[i]}
        for inst in order:
            master = library[inst.master]
            out_net = inst.connections[master.output_pins[0].name]
            if stats is not None:
                stats[1] += 1
            load = net_load(out_net)
            out = PinTiming()
            from_arc = -1
            for ai, arc in enumerate(master.arcs):
                in_net = inst.connections.get(arc.from_pin)
                if in_net is None or in_net not in net_timing:
                    continue
                pt = input_timing(in_net, inst.name, arc.from_pin)
                if _propagate_arc(arc, pt, load, out, stats):
                    from_arc = ai
            net_timing[out_net] = out
            i = net_id[out_net]
            st.arr_r[r, i], st.arr_f[r, i] = out.arrival_rise_ps, \
                out.arrival_fall_ps
            st.slw_r[r, i], st.slw_f[r, i] = out.slew_rise_ps, \
                out.slew_fall_ps
            st.written[i] = True
            st.from_inst[i] = comb_row[inst.name]
            st.from_arc[r, i] = from_arc
    if stats is not None:
        tracer.count("kernel.sta.insts", stats[1])
        tracer.count("kernel.sta.delay_evals", stats[0])


def clock_arrivals(graph, par, st, tracer):
    """Walk the clock tree, accumulating buffer and wire delays.

    Same signature and result as ``repro.sta.sta._clock_arrivals``,
    on a depth-first walk from the clock net that each row times
    scalar, buffer by buffer: a clock buffer folds its first arc only.
    Times the tree's nets in ``st``.
    """
    netlist, library, clock = graph.netlist, graph.library, graph.clock
    arrivals = np.zeros((par.rows, len(graph.seq_names)))
    if clock not in netlist.nets:
        return arrivals, np.zeros(par.rows), np.zeros(par.rows)
    # (instance, pin, net, arc, output net) per clock sink; a flop has
    # no arc, a clock buffer times its first one.
    steps: list[tuple[str, str, str, TimingArc | None, str | None]] = []
    frontier = [clock]
    while frontier:
        net_name = frontier.pop()
        for inst_name, pin_name in netlist.nets[net_name].sinks:
            inst = netlist.instances[inst_name]
            master = library[inst.master]
            if master.is_sequential:
                steps.append((inst_name, pin_name, net_name, None, None))
                continue
            out_net = inst.connections[master.output.name]
            steps.append((inst_name, pin_name, net_name, master.arcs[0],
                          out_net))
            frontier.append(out_net)
    net_id = graph.net_id
    buffered = [net_id[o] for *_s, o in steps if o is not None]
    wires = par.scale(par.elmore([graph.sink_at[s[:2]] for s in steps]),
                      [net_id[s[2]] for s in steps]).tolist()
    loads = par.loads[:, buffered].tolist()
    insertion, skew = np.zeros(par.rows), np.zeros(par.rows)
    for r in range(par.rows):
        net_timing = {clock: PinTiming.at_time(0.0)}
        reached: dict[str, float] = {}
        buffers = iter(loads[r])
        for (inst_name, _pin, net_name, arc, out_net), wire in zip(
                steps, wires[r]):
            at_pin = net_timing[net_name].delayed(wire)
            if arc is None:
                reached[inst_name] = at_pin.arrival(rise=True)
                continue
            out = PinTiming()
            _propagate_arc(arc, at_pin, next(buffers), out)
            net_timing[out_net] = out
        for name, pt in net_timing.items():
            i = net_id[name]
            st.arr_r[r, i], st.arr_f[r, i] = pt.arrival_rise_ps, \
                pt.arrival_fall_ps
            st.slw_r[r, i], st.slw_f[r, i] = pt.slew_rise_ps, \
                pt.slew_fall_ps
        for inst_name, t in reached.items():
            arrivals[r, graph.seq_index[inst_name]] = t
        skews = list(reached.values())
        if skews:
            insertion[r], skew[r] = max(skews), max(skews) - min(skews)
    st.timed[[net_id[clock]] + buffered] = True
    return arrivals, insertion, skew


_INF = 1e18


def _min_delay(arc: TimingArc, load_ff: float) -> float:
    """An arc's faster edge at the input slew, fast-corner derated."""
    return min(arc.delay(PRIMARY_INPUT_SLEW_PS, load_ff, True),
               arc.delay(PRIMARY_INPUT_SLEW_PS, load_ff, False)) \
        * FAST_CORNER_DERATE


def analyze_hold(netlist, library, extraction, clock: str = "clk",
                 input_delay_ps: float | None = None,
                 graph=None) -> HoldReport:
    """Hold check on dicts: a min-delay clock walk, then one min fold
    per instance in topological order.

    Same signature and report as ``repro.sta.analyze_hold``; the graph
    supplies only the sink table, launches and endpoints.
    """
    graph = _graph_for(netlist, library, clock, graph)
    min_arrival: dict[str, float] = {}
    wires = (extraction.elmore_ps(graph.net_names, graph.sinks,
                                  graph.sink_net)
             * FAST_CORNER_DERATE).tolist()
    loads = dict(zip(graph.net_names,
                     extraction.loads_ff(graph.net_names)[0].tolist()))

    def wire_delay(inst: str, pin: str) -> float:
        return wires[graph.sink_at[inst, pin]]

    # Clock arrivals (min corner) through the buffer tree.
    clock_arrivals: dict[str, float] = {}
    if clock in netlist.nets:
        frontier = [(clock, 0.0)]
        while frontier:
            net_name, base = frontier.pop()
            for inst_name, pin_name in netlist.nets[net_name].sinks:
                inst = netlist.instances[inst_name]
                master = library[inst.master]
                at_pin = base + wire_delay(inst_name, pin_name)
                if master.is_sequential:
                    clock_arrivals[inst_name] = at_pin
                    continue
                out_net = inst.connections[master.output.name]
                frontier.append((out_net, at_pin + _min_delay(
                    master.arcs[0], loads[out_net])))

    pi_arrival = input_delay_ps if input_delay_ps is not None else (
        max(clock_arrivals.values()) if clock_arrivals else 0.0
    )
    for net in netlist.nets.values():
        if net.is_primary_input:
            min_arrival[net.name] = 0.0 if net.is_clock else pi_arrival

    # Launch: earliest output after the launching edge.
    for inst_name, arc, out_net in graph.launches:
        min_arrival[out_net] = clock_arrivals.get(inst_name, 0.0) + \
            _min_delay(arc, loads[out_net])

    for inst in netlist.topological_order(library):
        master = library[inst.master]
        outs = master.output_pins
        if not outs:
            continue
        out_net = inst.connections[outs[0].name]
        if master.function in ("TIEHI", "TIELO"):
            min_arrival.setdefault(out_net, 0.0)
            continue
        load = loads[out_net]
        best = _INF
        for arc in master.arcs:
            in_net = inst.connections.get(arc.from_pin)
            if in_net is None or in_net not in min_arrival:
                continue
            arrival = min_arrival[in_net] + \
                wire_delay(inst.name, arc.from_pin)
            best = min(best, arrival + _min_delay(arc, load))
        min_arrival[out_net] = best if best < _INF else 0.0

    worst = _INF
    worst_endpoint = ""
    violators: list[tuple[float, str, str]] = []
    endpoints = 0
    for inst_name, pin, d_net, seq in graph.endpoints:
        if d_net not in min_arrival:
            continue
        endpoints += 1
        arrival = min_arrival[d_net] + wire_delay(inst_name, pin)
        capture = clock_arrivals.get(inst_name, 0.0)
        slack = arrival - (capture + seq.hold_ps)
        if slack < 0:
            violators.append((slack, inst_name, pin))
        if slack < worst:
            worst = slack
            worst_endpoint = inst_name

    if endpoints == 0:
        raise ValueError("design has no hold endpoints")
    violators.sort()
    return HoldReport(
        worst_slack_ps=worst,
        worst_endpoint=worst_endpoint,
        violations=len(violators),
        endpoint_count=endpoints,
        violating_endpoints=tuple((name, pin) for _s, name, pin in violators),
    )


class Parasitics(_Parasitics):
    """``repro.sta.sta._Parasitics`` gathering net by net, through
    ``extraction[net]``: the dict walk the index gathers replaced.

    Same signature and attributes: a net the extraction lacks loads 0.0,
    and a sink missing from its net's ``sink_elmore_ps`` reads 0.0.
    """

    def __init__(self, graph, extraction, factors) -> None:
        self.graph = graph
        self.extraction = extraction
        self.factors = factors
        self.rows = 1 if factors is None else len(factors)
        caps = np.array([(p.wire_cap_ff, p.pin_cap_ff) if p is not None
                         else (0.0, 0.0)
                         for p in map(extraction.get, graph.net_names)],
                        dtype=float).reshape(-1, 2)
        self.loads = (caps[:, 0] + caps[:, 1])[None, :] if factors is None \
            else caps[:, 0] * factors + caps[:, 1]
        self.wires = self.scale(self.elmore(graph.wire_sinks),
                                graph.wire_net_ids)
        if not self.wires.shape[1]:
            self.wires = np.zeros((self.rows, 1))

    def elmore(self, sinks) -> np.ndarray:
        graph = self.graph
        out = []
        for s in sinks:
            (inst, pin), net = graph.sinks[s], \
                graph.net_names[graph.sink_net[s]]
            p = self.extraction.get(net)
            out.append(p.elmore_to(inst, pin) if p is not None else 0.0)
        return np.array(out, dtype=float)


def _scale_net(p: NetParasitics, factor: float) -> NetParasitics:
    """One net's parasitics with wire R, C and Elmore scaled."""
    return replace(
        p,
        wire_cap_ff=p.wire_cap_ff * factor,
        wire_res_kohm=p.wire_res_kohm * factor,
        sink_elmore_ps={
            key: value * factor for key, value in p.sink_elmore_ps.items()
        },
    )


def scale_extraction(extraction: Extraction, factor: float) -> Extraction:
    """A copy of ``extraction`` with wire R, C and Elmore scaled.

    Pin capacitances belong to the cells, not the wires, so they keep
    their nominal values.  This is the copy a corner's or a sample's
    wire-RC factor row stands for in ``analyze_timing_rows``.
    """
    if factor == 1.0:
        return extraction
    return from_nets(_scale_net(p, factor)
                                for p in extraction.values())


def scale_extraction_sided(extraction: Extraction, front_factor: float,
                           back_factor: float) -> Extraction:
    """Scale wire RC with distinct frontside and backside derates.

    Each net gets an effective factor interpolated by its backside
    wirelength fraction (:attr:`NetParasitics.back_fraction`):
    ``front + frac * (back - front)``.  A purely frontside net (every
    CFET net) sees exactly ``front_factor``; equal factors reduce
    bit-for-bit to :func:`scale_extraction`.
    """
    if front_factor == 1.0 and back_factor == 1.0:
        return extraction

    def scaled(p: NetParasitics) -> NetParasitics:
        factor = front_factor + p.back_fraction * (back_factor - front_factor)
        return _scale_net(p, factor) if factor != 1.0 else p

    return from_nets(map(scaled, extraction.values()))
