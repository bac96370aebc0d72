"""Scalar oracles for STA: combinational propagation and RC scaling."""

from __future__ import annotations

from dataclasses import replace

from repro.extract import Extraction
from repro.extract.rc import NetParasitics
from repro.sta.sta import PinTiming, _propagate_arc


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
            p = extraction.nets.get(net_name)
            wire = 0.0
            if p is not None:
                wire = p.elmore_to(inst, pin)
                if factors is not None:
                    wire = wire * factors[net_id[net_name]]
            return net_timing[net_name].delayed(wire)

        def net_load(net_name):
            p = extraction.nets.get(net_name)
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
    scaled = Extraction()
    for name, p in extraction.nets.items():
        scaled.nets[name] = _scale_net(p, factor)
    return scaled


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
    scaled = Extraction()
    for name, p in extraction.nets.items():
        factor = front_factor + p.back_fraction * (back_factor - front_factor)
        scaled.nets[name] = _scale_net(p, factor) if factor != 1.0 else p
    return scaled
