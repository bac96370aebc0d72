"""Scalar oracles for STA: propagation, parasitics gathers, RC scaling."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.extract import Extraction
from repro.extract.rc import NetParasitics
from repro.sta.sta import PinTiming, _Parasitics, _propagate_arc

from .extract import from_nets


def propagate_comb(graph, par, st, tracer):
    """Topological-order propagation, one scalar NLDM lookup at a time.

    Same signature and result as ``repro.sta.sta._propagate_comb``: for
    each row it reads the nets ``st`` timed on entry, times every
    combinational output from the graph's netlist and library and the
    row's scaled parasitics, and writes the outputs and their
    provenance back into ``st``.
    """
    netlist, library = graph.netlist, graph.library
    extraction = par.extraction
    net_id = graph.net_id
    comb_row = {name: i for i, name in enumerate(graph.comb_names)}
    order = netlist.topological_order(library)
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
            for name, i in net_id.items() if st.timed[i]}
        for inst in order:
            master = library[inst.master]
            out_pins = master.output_pins
            if not out_pins:
                continue
            out_net = inst.connections[out_pins[0].name]
            if master.function in ("TIEHI", "TIELO"):
                net_timing.setdefault(out_net, PinTiming.at_time(0.0))
                continue
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
