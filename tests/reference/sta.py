"""Scalar oracle for STA's combinational propagation."""

from __future__ import annotations

from repro.sta.sta import PinTiming, _propagate_arc


def propagate_comb(graph, extraction, net_timing, net_from, tracer):
    """Topological-order propagation, one scalar NLDM lookup at a time.

    Same signature and result as ``repro.sta.sta._propagate_comb``; it
    reads only the graph's netlist and library, and the returned
    ``net_from`` view is the plain dict, filled in place.
    """
    netlist, library = graph.netlist, graph.library

    def input_timing(net_name, inst, pin):
        wire = extraction[net_name].elmore_to(inst, pin) \
            if net_name in extraction else 0.0
        return net_timing[net_name].delayed(wire)

    def net_load(net_name):
        return extraction[net_name].total_cap_ff if net_name in extraction \
            else 0.0

    stats = [0, 0] if tracer.enabled else None
    for inst in netlist.topological_order(library):
        master = library[inst.master]
        out_pins = master.output_pins
        if not out_pins:
            continue
        out_net = inst.connections[out_pins[0].name]
        if master.function in ("TIEHI", "TIELO"):
            net_timing.setdefault(out_net, PinTiming.at_time(0.0))
            net_from.setdefault(out_net, None)
            continue
        if stats is not None:
            stats[1] += 1
        load = net_load(out_net)
        out = PinTiming()
        from_pin = None
        for arc in master.arcs:
            in_net = inst.connections.get(arc.from_pin)
            if in_net is None or in_net not in net_timing:
                continue
            pt = input_timing(in_net, inst.name, arc.from_pin)
            if _propagate_arc(arc, pt, load, out, stats):
                from_pin = arc.from_pin
        net_timing[out_net] = out
        net_from[out_net] = (inst.name, from_pin) if from_pin else None
    if stats is not None:
        tracer.count("kernel.sta.insts", stats[1])
        tracer.count("kernel.sta.delay_evals", stats[0])
    return len(net_timing), net_from
