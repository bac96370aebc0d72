"""Scalar oracle for fanout buffering: a full bind after every split.

``repro.synth.sizing.buffer_high_fanout`` tracks each split net's new
sinks and binds once at the end; this is the version it replaced,
which re-binds the whole netlist after each net it splits so that the
next split reads the sinks straight from the netlist.
"""

from __future__ import annotations


def buffer_high_fanout(netlist, library, max_fanout=20, clock="clk"):
    """Same signature and result as the production function."""
    if max_fanout < 2:
        raise ValueError(f"max_fanout must be at least 2, got {max_fanout}")
    added = 0
    work = [
        name for name, net in netlist.nets.items()
        if len(net.sinks) > max_fanout and name != clock and not net.is_clock
    ]
    counter = 0
    while work:
        net_name = work.pop()
        sinks = sorted(netlist.nets[net_name].sinks)
        if len(sinks) <= max_fanout:
            continue
        for i in range(0, len(sinks), max_fanout):
            counter += 1
            added += 1
            buf_name = f"fobuf_{net_name.replace('/', '_')}_{counter}"
            buf_net = f"fonet_{net_name.replace('/', '_')}_{counter}"
            netlist.add_net(buf_net)
            netlist.add_instance(buf_name, "BUFD4",
                                 {"A": net_name, "Z": buf_net})
            for inst_name, pin_name in sinks[i:i + max_fanout]:
                netlist.instances[inst_name].connections[pin_name] = buf_net
        netlist.bind(library)
        if len(netlist.nets[net_name].sinks) > max_fanout:
            work.append(net_name)
    if added:
        netlist.bind(library)
    return added
