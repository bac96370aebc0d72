"""High-fanout buffering and timing-driven gate sizing.

Plays the role of the synthesis tool's delay optimization: the netlist
comes out of the generators at minimum drive (D1); this pass buffers
high-fanout nets, then iterates wireload-model STA and upsizes cells on
failing paths until the target period is met or sizing saturates.  A
higher synthesis target therefore buys speed with area and power —
the mechanism behind the paper's 500 MHz - 3 GHz sweeps (Fig. 9).

Every pass times the netlist on one :class:`~repro.sta.TimingGraph`,
built after buffering: upsizing only swaps drive strengths, which each
pass patches into the graph instead of rebuilding it.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cells import Library
from ..extract import estimate_loads, estimate_parasitics
from ..netlist import Netlist
from ..sta import TimingGraph, TimingReport, analyze_timing

#: Synthesis guardband: optimize against this fraction of the target
#: period, because wireload-model timing is optimistic against the
#: post-route reality (detours, congestion derates, clock insertion).
SYNTHESIS_GUARDBAND = 0.55


@dataclass
class SizingReport:
    """Outcome of the sizing pass."""

    target_period_ps: float
    iterations: int
    upsized: int
    buffers_added: int
    final_timing: TimingReport

    @property
    def met(self) -> bool:
        return self.final_timing.met


def buffer_high_fanout(netlist: Netlist, library: Library,
                       max_fanout: int = 20, clock: str = "clk") -> int:
    """Split nets with more than ``max_fanout`` sinks with buffer trees.

    The clock net is left to CTS.  Returns the number of buffers added.
    ``max_fanout`` must be at least 2: a net split into one-sink groups
    drives as many buffers as it had sinks, so it would never converge.
    """
    if max_fanout < 2:
        raise ValueError(f"max_fanout must be at least 2, got {max_fanout}")
    added = 0
    work = [
        name for name, net in netlist.nets.items()
        if len(net.sinks) > max_fanout and name != clock and not net.is_clock
    ]
    # A split net's sinks become its buffers' inputs, in creation (that
    # is, instance) order -- what a bind would list; no other net's
    # sinks change, so one bind at the end settles the whole netlist.
    split: dict[str, list[tuple[str, str]]] = {}
    counter = 0
    while work:
        net_name = work.pop()
        sinks = sorted(split.get(net_name, netlist.nets[net_name].sinks))
        if len(sinks) <= max_fanout:
            continue
        groups = [sinks[i:i + max_fanout]
                  for i in range(0, len(sinks), max_fanout)]
        buffers = []
        for group in groups:
            counter += 1
            added += 1
            buf_name = f"fobuf_{net_name.replace('/', '_')}_{counter}"
            buf_net = f"fonet_{net_name.replace('/', '_')}_{counter}"
            netlist.add_net(buf_net)
            netlist.add_instance(buf_name, "BUFD4",
                                 {"A": net_name, "Z": buf_net})
            buffers.append((buf_name, "A"))
            for inst_name, pin_name in group:
                netlist.instances[inst_name].connections[pin_name] = buf_net
        split[net_name] = buffers
        # The source net now drives the buffers; it may still exceed the
        # budget if there were many groups.
        if len(buffers) > max_fanout:
            work.append(net_name)
    if added:
        netlist.bind(library)
    return added


def _upsize(netlist: Netlist, library: Library, inst_name: str) -> bool:
    """Move one instance to the next drive strength; False at the top."""
    inst = netlist.instances[inst_name]
    master = library[inst.master]
    stronger = library.next_drive_up(master)
    if stronger is None:
        return False
    inst.master = stronger.name
    return True


def size_for_target(netlist: Netlist, library: Library,
                    target_period_ps: float, clock: str = "clk",
                    max_iterations: int = 12,
                    max_fanout: int = 20) -> SizingReport:
    """Buffer, then iteratively upsize the critical path to the target."""
    if target_period_ps <= 0:
        raise ValueError("target period must be positive")
    effective_period_ps = target_period_ps * SYNTHESIS_GUARDBAND
    buffers = buffer_high_fanout(netlist, library, max_fanout, clock)
    graph = TimingGraph(netlist, library, clock)

    upsized = 0
    iterations = 0
    report = None
    for iterations in range(1, max_iterations + 1):
        extraction = estimate_parasitics(netlist, library)
        report = analyze_timing(netlist, library, extraction,
                                effective_period_ps, clock, graph=graph)
        if report.met:
            break
        progressed = False
        # Upsize every instance appearing on the critical path.
        for hop in report.critical_path:
            if "/" not in hop:
                continue
            inst_name = hop.rsplit("/", 1)[0]
            if inst_name in netlist.instances and \
                    _upsize(netlist, library, inst_name):
                upsized += 1
                progressed = True
        # Also upsize overloaded drivers anywhere in the design, at the
        # loads the critical-path upsizes left.
        loads = estimate_loads(netlist, library)
        for inst in list(netlist.instances.values()):
            master = library[inst.master]
            outs = master.output_pins
            if not outs:
                continue
            out_net = inst.connections.get(outs[0].name)
            if out_net is None or out_net not in loads:
                continue
            load = loads[out_net]
            if load > 3.0 * master.drive and _upsize(netlist, library,
                                                     inst.name):
                upsized += 1
                progressed = True
        if not progressed:
            break

    if report is None or not report.met:
        extraction = estimate_parasitics(netlist, library)
        report = analyze_timing(netlist, library, extraction,
                                effective_period_ps, clock, graph=graph)
    return SizingReport(
        target_period_ps=target_period_ps,
        iterations=iterations,
        upsized=upsized,
        buffers_added=buffers,
        final_timing=report,
    )
