"""Hold-time analysis: min-delay propagation at the fast corner.

Complements the setup analysis in :mod:`repro.sta.sta`.  Arrivals are
propagated as *minimum* delays (each gate's fastest edge, derated to a
fast process corner); the hold check at each sequential data pin
compares the earliest data arrival after a clock edge against the
capture clock arrival plus that cell's hold time.  Launch arcs and
endpoints are the :class:`~repro.sta.sta.TimingGraph`'s, the same ones
setup uses: a hard macro launches every data output and captures on
every non-clock input.  Clock-tree skew is the usual hold hazard, and
the CTS tree built by :mod:`repro.pnr.cts` feeds straight into this.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cells import Library, TimingArc
from ..extract import Extraction
from ..netlist import Netlist
from .sta import PRIMARY_INPUT_SLEW_PS, TimingGraph

#: Fast-corner delay derate applied to min-path delays.
FAST_CORNER_DERATE = 0.85

_INF = 1e18


@dataclass(frozen=True)
class HoldReport:
    """Result of one hold-analysis run."""

    worst_slack_ps: float
    worst_endpoint: str
    violations: int
    endpoint_count: int
    #: ``(instance, pin)`` data pins that violate hold, worst first.
    violating_endpoints: tuple[tuple[str, str], ...] = ()

    @property
    def met(self) -> bool:
        return self.worst_slack_ps >= 0.0


def _min_delay(arc: TimingArc, load_ff: float) -> float:
    """An arc's faster edge at the input slew, fast-corner derated."""
    return min(arc.delay(PRIMARY_INPUT_SLEW_PS, load_ff, True),
               arc.delay(PRIMARY_INPUT_SLEW_PS, load_ff, False)) \
        * FAST_CORNER_DERATE


def analyze_hold(netlist: Netlist, library: Library, extraction: Extraction,
                 clock: str = "clk",
                 input_delay_ps: float | None = None) -> HoldReport:
    """Min-delay hold check at every sequential data pin.

    Primary inputs are assumed to come from registers on the same clock,
    so their earliest arrival is the clock network latency (or the
    explicit ``input_delay_ps``) — the standard input-delay constraint.
    """
    graph = TimingGraph(netlist, library)
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


def fix_hold(netlist: Netlist, library: Library, extraction: Extraction,
             clock: str = "clk", max_iterations: int = 10,
             placement=None) -> HoldReport:
    """Insert delay buffers until hold closes (or iterations run out).

    The standard post-route hold fix: a minimum-drive buffer is inserted
    in front of each violating data pin, adding one gate's min delay per
    iteration.  Mutates the netlist (and, when a placement is given,
    places each buffer at its sequential cell); returns the final report.
    """
    counter = 0
    report = analyze_hold(netlist, library, extraction, clock)
    for _iteration in range(max_iterations):
        if report.met:
            break
        for inst_name, pin in report.violating_endpoints:
            counter += 1
            inst = netlist.instances[inst_name]
            old_net = inst.connections[pin]
            new_net = f"holdnet_{counter}"
            netlist.add_net(new_net)
            netlist.add_instance(f"holdbuf_{counter}", "BUFD1",
                                 {"A": old_net, "Z": new_net})
            inst.connections[pin] = new_net
            if placement is not None:
                placement.locations[f"holdbuf_{counter}"] = \
                    placement.locations[inst_name]
        netlist.bind(library)
        report = analyze_hold(netlist, library, extraction, clock)
    return report
