"""Hold-time analysis: min-delay propagation at the fast corner.

Complements the setup analysis in :mod:`repro.sta.sta` on the same
:class:`~repro.sta.sta.TimingGraph`: its launch arcs, endpoints and
level batches.  Each net carries one earliest arrival, and each gate's
fastest edge is taken at the primary-input slew, derated to a fast
process corner (:func:`_propagate_min`).  The clock tree's batches run
first and give each sequential cell its capture arrival; the hold check
at each data pin (a flop's D, every non-clock input of a hard macro)
compares the earliest data arrival against that capture plus the
cell's hold time.  Clock-tree skew is the usual hold hazard, and the
CTS tree built by :mod:`repro.pnr.cts` feeds straight into this.

The graph belongs to the caller, as for setup: a caller that checks one
netlist more than once passes its graph to each check, and
:func:`fix_hold` keeps one across its rounds of buffer insertion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cells import Library
from ..extract import Extraction
from ..netlist import Netlist
from .sta import PRIMARY_INPUT_SLEW_PS, TimingGraph, _graph_for

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


def _propagate_min(graph: TimingGraph, batches, arrival: np.ndarray,
                   timed: np.ndarray, wires: np.ndarray,
                   loads: np.ndarray) -> None:
    """Earliest arrival at every output of ``batches``, in place.

    Each lane adds ``(arrival + wire) + delay * FAST_CORNER_DERATE``,
    the delay taken at the primary-input slew, and the smallest timed
    lane wins; an output no timed lane reaches reads 0.0.  Every output
    counts as timed afterwards.
    """
    lane_wires = wires[graph.wire_sinks] if len(graph.wire_sinks) \
        else np.zeros(1)
    for lvl in batches:
        slew = np.full(lvl.gid_d.shape, PRIMARY_INPUT_SLEW_PS)
        delay = graph.stack.evaluate(lvl.gid_d, lvl.row_d, slew,
                                     loads[lvl.out_ids][:, None])
        cand = (arrival[lvl.in_ids] + lane_wires[lvl.wire_slot]) \
            + delay * FAST_CORNER_DERATE
        valid = lvl.present & timed[lvl.in_ids]
        best = np.where(valid, cand, _INF).min(axis=1, initial=_INF)
        arrival[lvl.out_ids] = np.where(best < _INF, best, 0.0)
        timed[lvl.out_ids] = True


def analyze_hold(netlist: Netlist, library: Library, extraction: Extraction,
                 clock: str = "clk",
                 input_delay_ps: float | None = None,
                 graph: TimingGraph | None = None) -> HoldReport:
    """Min-delay hold check at every sequential data pin.

    Primary inputs are assumed to come from registers on the same clock,
    so their earliest arrival is the clock network latency (or the
    explicit ``input_delay_ps``) — the standard input-delay constraint.
    ``graph``, the caller's :class:`~repro.sta.TimingGraph` of this
    netlist, library and clock, is refreshed and reused, as by
    :func:`~repro.sta.analyze_timing`; without one the call builds its
    own.  The report is the same either way.
    """
    graph = _graph_for(netlist, library, clock, graph)
    wires = extraction.elmore_ps(graph.net_names, graph.sinks,
                                 graph.sink_net) * FAST_CORNER_DERATE
    loads = extraction.loads_ff(graph.net_names)[0]
    arrival = np.zeros(graph.n_nets)
    timed = np.zeros(graph.n_nets, dtype=bool)

    # Clock arrivals (min corner) through the clock tree's batches.
    if graph.clock_id is not None:
        timed[graph.clock_id] = True
    _propagate_min(graph, graph.clock_levels, arrival, timed, wires, loads)
    reached = arrival[graph.ck_net] + wires[graph.ck_sinks]
    capture = np.zeros(len(graph.seq_names))
    capture[graph.ck_seq] = reached

    pi_arrival = input_delay_ps if input_delay_ps is not None else (
        float(reached.max()) if len(reached) else 0.0)
    arrival[graph.input_ids] = [
        0.0 if netlist.nets[name].is_clock else pi_arrival
        for name in graph.inputs]
    timed[graph.input_ids] = True

    # Launch: earliest output after the launching edge.
    if graph.launches:
        out = graph.launch_out
        slew = np.full(len(out), PRIMARY_INPUT_SLEW_PS)
        rise, fall = (graph.stack.evaluate(gid, row, slew, loads[out])
                      for (gid, row), _trans in graph.launch_tables)
        arrival[out] = capture[graph.launch_seq] \
            + np.minimum(rise, fall) * FAST_CORNER_DERATE
        timed[out] = True
    ties = [oid for _i, _n, oid in graph.ties if not timed[oid]]
    arrival[ties], timed[ties] = 0.0, True

    _propagate_min(graph, graph.levels, arrival, timed, wires, loads)

    worst = _INF
    worst_endpoint = ""
    violators: list[tuple[float, str, str]] = []
    endpoints = 0
    for (inst_name, pin, _net, seq), ok, at, ck in zip(
            graph.endpoints, timed[graph.ep_net].tolist(),
            (arrival[graph.ep_net] + wires[graph.ep_sinks]).tolist(),
            capture[graph.ep_seq].tolist()):
        if not ok:
            continue
        endpoints += 1
        slack = at - (ck + seq.hold_ps)
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
             placement=None, graph: TimingGraph | None = None) -> HoldReport:
    """Insert delay buffers until hold closes (or iterations run out).

    The standard post-route hold fix: a minimum-drive buffer is inserted
    in front of each violating data pin, adding one gate's min delay per
    iteration.  Mutates the netlist (and, when a placement is given,
    places each buffer at its sequential cell); returns the final report.
    Every check runs on one :class:`~repro.sta.TimingGraph`: ``graph``
    (as for :func:`analyze_hold`) or one built here.  Its refresh reuses
    it while the netlist is unchanged and rebuilds it after each round
    of buffers.
    """
    counter = 0
    if graph is None:
        graph = TimingGraph(netlist, library, clock)
    report = analyze_hold(netlist, library, extraction, clock, graph=graph)
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
        report = analyze_hold(netlist, library, extraction, clock,
                              graph=graph)
    return report
