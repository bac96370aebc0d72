"""Graph-based static timing analysis with NLDM + Elmore wire delays.

Single-clock setup analysis, the way the paper's power-performance
stage uses commercial STA: rise and fall arrivals/slews propagate
separately through arc unateness (an inverter's rising output is timed
from its falling input), wire delays come from the extracted Elmore
values, and setup is checked at every sequential data pin and primary output.
``achieved frequency`` is the frequency at which the worst path just
closes — the paper's Figs. 9-11 metric.

A netlist's timing structure is a :class:`TimingGraph` owned by its
caller.  Callers that re-time one netlist build one and pass it to each
:func:`analyze_timing` call: sizing per ``size_for_target`` call, the
Monte-Carlo engine per chunk of samples, ``analyze_corners`` per call.
Signoff and path reports time once and pass nothing, so each call
builds a one-off graph.  :meth:`TimingGraph.refresh` patches
drive-strength swaps in; any other edit needs a new graph.  There is
no module-level memo: a graph lives exactly as long as its owner.

The combinational propagation — the hottest loop in the whole flow,
dominating the sizing stage — is a level-batched engine
(:func:`_propagate_comb`) that groups instances by logic level and
evaluates every timing-arc candidate of a level through one
stacked-table interpolation (:class:`repro.sta.nldm.TableStack`).

It agrees bit-for-bit with the scalar topological-order oracle in
``tests/reference/sta.py``, which folds one arc at a time through
:func:`_propagate_arc` like the clock and launch arcs here do: the
batched engine performs the same adds in the same order, replaces the running strict-``>`` maximum with an argmax (first
occurrence of the maximum — exactly what first-wins strict updates
keep), and resolves ``from_pin`` as the later of the two edges'
winning arcs, which is precisely the last arc the scalar loop would
have accepted.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from ..cells import Library, SequentialTiming, TimingArc
from ..core.telemetry import current_tracer
from ..extract import Extraction
from ..netlist import Netlist
from .nldm import TableStack

#: Slew assumed at primary inputs, ps.
PRIMARY_INPUT_SLEW_PS = 10.0
#: Wire slew degradation per ps of Elmore delay.
SLEW_DEGRADATION = 1.8

_NEG = -1e18


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

    @property
    def worst_arrival_ps(self) -> float:
        return max(self.arrival_rise_ps, self.arrival_fall_ps)

    def delayed(self, wire_ps: float) -> "PinTiming":
        """This timing seen after a wire segment of the given Elmore delay."""
        extra_slew = SLEW_DEGRADATION * wire_ps
        return PinTiming(
            self.arrival_rise_ps + wire_ps if self.arrival_rise_ps > _NEG / 2 else _NEG,
            self.arrival_fall_ps + wire_ps if self.arrival_fall_ps > _NEG / 2 else _NEG,
            self.slew_rise_ps + extra_slew,
            self.slew_fall_ps + extra_slew,
        )


@dataclass
class TimingReport:
    """Result of one setup-timing run."""

    period_ps: float
    wns_ps: float
    tns_ps: float
    worst_endpoint: str
    critical_path: list[str]
    clock_skew_ps: float
    insertion_delay_ps: float
    endpoint_count: int
    #: Arrival time of the worst data path, ps.
    worst_arrival_ps: float

    @property
    def achieved_period_ps(self) -> float:
        """Smallest period the design would meet, given this run."""
        return self.period_ps - self.wns_ps

    @property
    def achieved_frequency_ghz(self) -> float:
        return 1000.0 / self.achieved_period_ps

    @property
    def met(self) -> bool:
        return self.wns_ps >= 0.0


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


def analyze_timing(netlist: Netlist, library: Library, extraction: Extraction,
                   period_ps: float, clock: str = "clk",
                   graph: TimingGraph | None = None) -> TimingReport:
    """Run setup analysis at ``period_ps``; see :class:`TimingReport`.

    ``graph``, the caller's :class:`TimingGraph` of this netlist and
    library, is refreshed and reused; without one the call builds its
    own.  The report is the same either way.
    """
    if graph is None:
        graph = TimingGraph(netlist, library)
    elif graph.netlist is not netlist or graph.library is not library:
        raise ValueError(
            "timing graph was built for another netlist or library")
    else:
        graph.refresh()
    net_timing: dict[str, PinTiming] = {}
    net_from: dict[str, tuple[str, str] | None] = {}

    for net in netlist.nets.values():
        if net.is_primary_input:
            net_timing[net.name] = PinTiming.at_time(0.0)
            net_from[net.name] = None

    def net_load(net_name: str) -> float:
        return extraction[net_name].total_cap_ff if net_name in extraction \
            else 0.0

    # Clock network first: propagate along clock tree (CLKBUF chains).
    clock_arrivals: dict[str, float] = {}  # flop instance -> CK arrival
    if clock in netlist.nets:
        _propagate_clock(netlist, library, extraction, clock,
                         net_timing, clock_arrivals)

    # Sequential launch points, one per clock-to-output arc.
    for inst_name, arc, out_net in graph.launches:
        out = PinTiming()
        _propagate_arc(arc, PinTiming.at_time(
            clock_arrivals.get(inst_name, 0.0)), net_load(out_net), out)
        net_timing[out_net] = out
        net_from[out_net] = (inst_name, "CK")

    # Combinational propagation in topological order.
    tracer = current_tracer()
    with tracer.span("kernel.sta.propagate"):
        nets_timed, net_from_view = _propagate_comb(
            graph, extraction, net_timing, net_from, tracer)

    def checks():
        """(endpoint, net, arrival, required) of every timed endpoint."""
        for inst_name, pin, d_net, seq in graph.endpoints:
            if d_net in net_timing:
                wire = extraction[d_net].elmore_to(inst_name, pin) \
                    if d_net in extraction else 0.0
                yield (inst_name, d_net,
                       net_timing[d_net].delayed(wire).worst_arrival_ps,
                       period_ps + clock_arrivals.get(inst_name, 0.0)
                       - seq.setup_ps)
        for net_name in graph.outputs:
            pt = net_timing.get(net_name)
            if pt is not None and pt.worst_arrival_ps >= _NEG / 2:
                yield f"PO:{net_name}", net_name, pt.worst_arrival_ps, \
                    period_ps

    wns = float("inf")
    tns = 0.0
    worst_endpoint = worst_net = ""
    worst_arrival = 0.0
    endpoints = 0
    for name, net_name, arrival, required in checks():
        endpoints += 1
        slack = required - arrival
        tns += min(slack, 0.0)
        if slack < wns:
            wns, worst_endpoint, worst_net, worst_arrival = \
                slack, name, net_name, arrival

    if endpoints == 0:
        raise ValueError("design has no timing endpoints")

    path = _trace_path(netlist, net_from_view, worst_net)
    skews = list(clock_arrivals.values())
    tracer.gauge("sta.endpoints", endpoints)
    tracer.gauge("sta.nets_timed", nets_timed)
    return TimingReport(
        period_ps=period_ps,
        wns_ps=wns,
        tns_ps=tns,
        worst_endpoint=worst_endpoint,
        critical_path=path,
        clock_skew_ps=(max(skews) - min(skews)) if skews else 0.0,
        insertion_delay_ps=max(skews) if skews else 0.0,
        endpoint_count=endpoints,
        worst_arrival_ps=worst_arrival,
    )


# -- level-batched combinational propagation ---------------------------------


class _MasterTemplate:
    """Per-master propagation recipe shared by all its instances.

    ``rise_cands`` / ``fall_cands`` list the (arc index, input edge,
    delay table, transition table) candidates for the rise/fall output
    edge, in exactly the order the scalar loop evaluates them: arcs in
    declaration order, and for non-unate arcs the rising input first.
    """

    __slots__ = ("is_seq", "is_tie", "out_pin", "in_pin_names",
                 "arc_from_pins", "rise_cands", "fall_cands", "sig")

    def __init__(self, master) -> None:
        self.is_seq = master.is_sequential
        self.is_tie = master.function in ("TIEHI", "TIELO")
        outs = master.output_pins
        self.out_pin = outs[0].name if outs else None
        self.in_pin_names = [p.name for p in master.input_pins]
        self.arc_from_pins = [arc.from_pin for arc in master.arcs]
        self.rise_cands = []
        self.fall_cands = []
        for ai, arc in enumerate(master.arcs):
            for rise_in in arc.input_edges_for(True):
                self.rise_cands.append(
                    (ai, rise_in, arc.rise_delay, arc.rise_transition))
            for rise_in in arc.input_edges_for(False):
                self.fall_cands.append(
                    (ai, rise_in, arc.fall_delay, arc.fall_transition))
        # Structure signature: a drive-strength swap that preserves it
        # can be patched in place; anything else forces a graph rebuild.
        self.sig = (self.is_seq, self.is_tie, self.out_pin,
                    tuple(self.arc_from_pins),
                    tuple(arc.unate for arc in master.arcs))


class _LevelBatch:
    """All candidate lanes of one logic level, padded to (n, R + F)."""

    __slots__ = ("rows", "out_ids", "out_names", "R", "F", "in_ids",
                 "rise_in", "present", "gid_d", "row_d", "gid_t", "row_t",
                 "arc_idx", "wire_slot", "wire_pairs")


class TimingGraph:
    """Timing structure of one (netlist, library) pair, owned by its caller.

    Everything here is structural — net ids, logic levels, candidate
    lanes, lookup-table rows — and is reused by every
    :func:`analyze_timing` call its owner makes; per-call data (wire
    delays, loads, arrivals) is gathered fresh each run.  It is also
    the one list of where timing starts and ends, in netlist order:

    * ``launches`` — ``(instance, arc, output net)`` per clock-to-output
      arc: a flop's CK -> Q, every data output of a hard macro;
    * ``endpoints`` — ``(instance, pin, net, sequential timing)`` per
      connected non-clock input of a sequential cell: a flop's D, a
      macro's address/data/enable pins;
    * ``outputs`` — the primary-output nets, setup endpoints too.
    """

    def __init__(self, netlist: Netlist, library: Library) -> None:
        self.netlist = netlist
        self.library = library
        self._build()

    def _build(self) -> None:
        netlist = self.netlist
        self.stack = TableStack()
        self.templates: dict[str, _MasterTemplate] = {}
        self.net_id = {name: i for i, name in enumerate(netlist.nets)}
        self.n_nets = len(self.net_id)
        self.size = (len(netlist.instances), self.n_nets)

        instances = netlist.instances
        nets = netlist.nets
        comb_names: list[str] = []
        comb_tmpls: list[_MasterTemplate] = []
        out_names: list[str] = []
        self.ties: list[tuple[str, str, int]] = []
        self.seq_names: list[str] = []
        for inst in instances.values():
            t = self._template(inst.master)
            if t.is_seq:
                self.seq_names.append(inst.name)
                continue
            if t.out_pin is None:
                continue
            out_net = inst.connections[t.out_pin]
            if t.is_tie:
                self.ties.append((inst.name, out_net, self.net_id[out_net]))
                continue
            comb_names.append(inst.name)
            comb_tmpls.append(t)
            out_names.append(out_net)
        self.comb_names = comb_names
        self.comb_masters = [instances[n].master for n in comb_names]
        self.row_template = comb_tmpls
        self._list_sequential()
        self.outputs = [n.name for n in nets.values()
                        if n.is_primary_output and not n.is_primary_input]

        # Logic levels over the same dependency edges the reference
        # topological order uses (non-clock input pins, combinational
        # drivers) — every arc fanin therefore sits at a lower level.
        n = len(comb_names)
        index_of = {name: i for i, name in enumerate(comb_names)}
        indeg = [0] * n
        deps: list[list[int]] = [[] for _ in range(n)]
        for i in range(n):
            conn = instances[comb_names[i]].connections
            for pin in comb_tmpls[i].in_pin_names:
                driver = nets[conn[pin]].driver
                if driver is None:
                    continue
                j = index_of.get(driver[0])
                if j is None:
                    continue  # sequential or tie driver: ready at level 0
                deps[j].append(i)
                indeg[i] += 1
        level = [0] * n
        queue = deque(i for i in range(n) if indeg[i] == 0)
        done = 0
        while queue:
            i = queue.popleft()
            done += 1
            nxt = level[i] + 1
            for j in deps[i]:
                if nxt > level[j]:
                    level[j] = nxt
                indeg[j] -= 1
                if indeg[j] == 0:
                    queue.append(j)
        if done != n:
            raise ValueError("combinational loop detected")
        by_level: dict[int, list[int]] = {}
        for i in range(n):
            by_level.setdefault(level[i], []).append(i)

        self.levels = [self._build_level(rows, out_names)
                       for _lvl, rows in sorted(by_level.items())]
        #: row -> (level index, row-within-level) for master refreshes.
        self.row_pos: list[tuple[int, int]] = [(0, 0)] * n
        for li, lvl in enumerate(self.levels):
            for r, i in enumerate(lvl.rows.tolist()):
                self.row_pos[i] = (li, r)

    def _template(self, master_name: str) -> _MasterTemplate:
        t = self.templates.get(master_name)
        if t is None:
            t = _MasterTemplate(self.library[master_name])
            self.templates[master_name] = t
        return t

    def _list_sequential(self) -> None:
        """List launch arcs and endpoints from the current masters."""
        instances = self.netlist.instances
        self.seq_masters = [instances[n].master for n in self.seq_names]
        self.launches: list[tuple[str, TimingArc, str]] = []
        self.endpoints: list[tuple[str, str, str, SequentialTiming]] = []
        for name, master_name in zip(self.seq_names, self.seq_masters):
            m, conn = self.library[master_name], instances[name].connections
            self.launches += [(name, arc, conn[arc.to_pin])
                              for arc in m.arcs if arc.to_pin in conn]
            self.endpoints += [(name, p.name, conn[p.name], m.sequential)
                               for p in m.input_pins if p.name in conn]

    def _build_level(self, rows: list[int],
                     out_names: list[str]) -> _LevelBatch:
        instances = self.netlist.instances
        lvl = _LevelBatch()
        n = len(rows)
        lvl.rows = np.asarray(rows, dtype=np.intp)
        lvl.out_names = [out_names[i] for i in rows]
        lvl.out_ids = np.array([self.net_id[o] for o in lvl.out_names],
                               dtype=np.intp)
        tmpls = [self.row_template[i] for i in rows]
        R = max((len(t.rise_cands) for t in tmpls), default=0)
        F = max((len(t.fall_cands) for t in tmpls), default=0)
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
        lvl.wire_pairs = []
        for r, i in enumerate(rows):
            t = tmpls[r]
            conn = instances[self.comb_names[i]].connections
            arc_info: list[tuple[int, int] | None] = []
            for fp in t.arc_from_pins:
                in_net = conn.get(fp)
                if in_net is None:
                    arc_info.append(None)
                    continue
                arc_info.append((self.net_id[in_net], len(lvl.wire_pairs)))
                lvl.wire_pairs.append((self.comb_names[i], fp, in_net))
            self._fill_row(lvl, r, t, arc_info)
        return lvl

    def _fill_row(self, lvl: _LevelBatch, r: int, t: _MasterTemplate,
                  arc_info: list) -> None:
        """Write one instance's candidate lanes (tables and topology)."""
        for base, cands in ((0, t.rise_cands), (lvl.R, t.fall_cands)):
            for off, (ai, rise_in, dtab, ttab) in enumerate(cands):
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
                gd, rd = self.stack.add(dtab)
                gt, rt = self.stack.add(ttab)
                lvl.gid_d[r, col] = gd
                lvl.row_d[r, col] = rd
                lvl.gid_t[r, col] = gt
                lvl.row_t[r, col] = rt

    def refresh(self) -> None:
        """Patch drive-strength swaps in place; rebuild on anything else.

        A swap keeping the master's structure signature rewrites only
        its instance's rows (or relists a sequential cell's launches and
        endpoints); a changed signature or cell or net count rebuilds.
        """
        netlist = self.netlist
        if (len(netlist.instances), len(netlist.nets)) != self.size \
                or not self._patch():
            self._build()

    def _patch(self) -> bool:
        instances = self.netlist.instances
        for i, name in enumerate(self.comb_names):
            master = instances[name].master
            if master == self.comb_masters[i]:
                continue
            t = self._template(master)
            old = self.row_template[i]
            if t.sig != old.sig:
                return False
            li, r = self.row_pos[i]
            lvl = self.levels[li]
            arc_info: list[tuple[int, int] | None] = []
            for ai in range(len(t.arc_from_pins)):
                # Connectivity is untouched by a drive swap; reuse the
                # stored lanes of any candidate column of this arc.
                cols = np.flatnonzero(lvl.arc_idx[r] == ai)
                if len(cols):
                    c = cols[0]
                    arc_info.append((int(lvl.in_ids[r, c]),
                                     int(lvl.wire_slot[r, c])))
                else:
                    arc_info.append(None)
            self._fill_row(lvl, r, t, arc_info)
            self.comb_masters[i] = master
            self.row_template[i] = t
        if [instances[n].master for n in self.seq_names] != self.seq_masters:
            self._list_sequential()
        return True


class _ArrayFromMap:
    """`net_from` view over the batched engine's provenance arrays."""

    def __init__(self, base: dict, graph: TimingGraph, from_inst,
                 from_arc) -> None:
        self.base = base
        self.graph = graph
        self.from_inst = from_inst
        self.from_arc = from_arc

    def get(self, name, default=None):
        i = self.graph.net_id.get(name)
        if i is not None:
            row = self.from_inst[i]
            if row >= 0:
                arc = self.from_arc[i]
                if arc < 0:
                    return default
                return (self.graph.comb_names[row],
                        self.graph.row_template[row].arc_from_pins[arc])
        return self.base.get(name, default)


def _propagate_comb(graph: TimingGraph, extraction: Extraction,
                    net_timing: dict[str, PinTiming],
                    net_from: dict, tracer):
    """Time every combinational output, all arcs of a level in one pass.

    Extends ``net_timing`` (the launch points on entry) with the nets
    the endpoint checks read and returns ``(nets timed, net_from
    view)``.
    """
    n_nets = graph.n_nets
    arr_r = np.full(n_nets, _NEG)
    arr_f = np.full(n_nets, _NEG)
    slw_r = np.full(n_nets, PRIMARY_INPUT_SLEW_PS)
    slw_f = np.full(n_nets, PRIMARY_INPUT_SLEW_PS)
    init_mask = np.zeros(n_nets, dtype=bool)
    net_id = graph.net_id
    for name, pt in net_timing.items():
        i = net_id[name]
        arr_r[i] = pt.arrival_rise_ps
        arr_f[i] = pt.arrival_fall_ps
        slw_r[i] = pt.slew_rise_ps
        slw_f[i] = pt.slew_fall_ps
        init_mask[i] = True

    for _inst_name, out_name, oid in graph.ties:
        if out_name not in net_timing:
            net_timing[out_name] = PinTiming.at_time(0.0)
            net_from.setdefault(out_name, None)
            arr_r[oid] = arr_f[oid] = 0.0
            slw_r[oid] = slw_f[oid] = PRIMARY_INPUT_SLEW_PS
            init_mask[oid] = True

    written = np.zeros(n_nets, dtype=bool)
    from_inst = np.full(n_nets, -1, dtype=np.int64)
    from_arc = np.full(n_nets, -1, dtype=np.int64)
    exn = extraction.nets
    counting = tracer.enabled
    evals = 0
    batch_max = 0
    for lvl in graph.levels:
        n = len(lvl.out_names)
        batch_max = max(batch_max, n)
        wires = np.zeros(max(len(lvl.wire_pairs), 1))
        for k, (iname, pin, in_net) in enumerate(lvl.wire_pairs):
            p = exn.get(in_net)
            wires[k] = p.sink_elmore_ps.get((iname, pin), 0.0) \
                if p is not None else 0.0
        loads = np.empty(n)
        for k, out_name in enumerate(lvl.out_names):
            p = exn.get(out_name)
            loads[k] = p.total_cap_ff if p is not None else 0.0

        in_ids = lvl.in_ids
        arr_sel = np.where(lvl.rise_in, arr_r[in_ids], arr_f[in_ids])
        slw_sel = np.where(lvl.rise_in, slw_r[in_ids], slw_f[in_ids])
        w = wires[lvl.wire_slot]
        # Same three adds, same order, as PinTiming.delayed + the arc
        # fold: (arrival + wire) + delay, slew + (1.8 * wire).
        arr_in = arr_sel + w
        slw_in = slw_sel + SLEW_DEGRADATION * w
        valid = lvl.present & (arr_sel > _NEG / 2)
        if counting:
            evals += int(valid.sum())
        delay = graph.stack.evaluate(lvl.gid_d, lvl.row_d, slw_in,
                                    loads[:, None])
        cand = np.where(valid, arr_in + delay, -np.inf)

        rowsel = np.arange(n)
        edge_arc = []
        for lo, hi in ((0, lvl.R), (lvl.R, lvl.R + lvl.F)):
            if hi == lo:
                edge_arc.append(np.full(n, -1, dtype=np.int64))
                continue
            block = cand[:, lo:hi]
            idx = np.argmax(block, axis=1)
            best = block[rowsel, idx]
            has = valid[:, lo:hi].any(axis=1)
            wcol = idx + lo
            trans = graph.stack.evaluate(lvl.gid_t[rowsel, wcol],
                                         lvl.row_t[rowsel, wcol],
                                         slw_in[rowsel, wcol], loads)
            arrv = np.where(has, best, _NEG)
            slv = np.where(has, trans, PRIMARY_INPUT_SLEW_PS)
            if lo == 0:
                arr_r[lvl.out_ids] = arrv
                slw_r[lvl.out_ids] = slv
            else:
                arr_f[lvl.out_ids] = arrv
                slw_f[lvl.out_ids] = slv
            edge_arc.append(np.where(has, lvl.arc_idx[rowsel, wcol], -1))
        written[lvl.out_ids] = True
        from_inst[lvl.out_ids] = lvl.rows
        from_arc[lvl.out_ids] = np.maximum(edge_arc[0], edge_arc[1])

    nets_timed = len(net_timing) + int((written & ~init_mask).sum())
    if counting:
        tracer.count("kernel.sta.insts", len(graph.comb_names))
        tracer.count("kernel.sta.delay_evals", evals)
        tracer.count("kernel.sta.batches", len(graph.levels))
        tracer.gauge("kernel.sta.batch_max", batch_max)

    # Materialize only the nets the endpoint checks read.
    for name in [e[2] for e in graph.endpoints] + graph.outputs:
        i = net_id.get(name)
        if i is not None and written[i] and name not in net_timing:
            net_timing[name] = PinTiming(
                float(arr_r[i]), float(arr_f[i]),
                float(slw_r[i]), float(slw_f[i]))
    return nets_timed, _ArrayFromMap(net_from, graph, from_inst, from_arc)


def _propagate_clock(netlist: Netlist, library: Library,
                     extraction: Extraction, clock: str,
                     net_timing: dict[str, PinTiming],
                     clock_arrivals: dict[str, float]) -> None:
    """BFS down the clock tree, accumulating buffer and wire delays.

    Flops latch on the rising edge, so the capture arrival is the rise
    arrival at each CK pin.
    """
    frontier = [clock]
    net_timing.setdefault(clock, PinTiming.at_time(0.0))
    while frontier:
        net_name = frontier.pop()
        base = net_timing[net_name]
        for inst_name, pin_name in netlist.nets[net_name].sinks:
            inst = netlist.instances[inst_name]
            master = library[inst.master]
            wire = extraction[net_name].elmore_to(inst_name, pin_name) \
                if net_name in extraction else 0.0
            at_pin = base.delayed(wire)
            if master.is_sequential:
                clock_arrivals[inst_name] = at_pin.arrival(rise=True)
                continue
            # A clock buffer: propagate through it.
            out_net = inst.connections[master.output.name]
            load = extraction[out_net].total_cap_ff \
                if out_net in extraction else 0.0
            out = PinTiming()
            _propagate_arc(master.arcs[0], at_pin, load, out)
            net_timing[out_net] = out
            frontier.append(out_net)


def _trace_path(netlist: Netlist, net_from, end_net: str) -> list[str]:
    """Walk arrival provenance back to a launch point."""
    path: list[str] = []
    net_name = end_net
    seen = set()
    while net_name and net_name not in seen:
        seen.add(net_name)
        path.append(net_name)
        source = net_from.get(net_name)
        if source is None:
            break
        inst_name, from_pin = source
        path.append(f"{inst_name}/{from_pin}")
        if from_pin == "CK":
            break
        net_name = netlist.instances[inst_name].connections.get(from_pin, "")
    return list(reversed(path))
