"""Graph-based static timing analysis with NLDM + Elmore wire delays.

Single-clock setup analysis, the way the paper's power-performance
stage uses commercial STA: rise and fall arrivals/slews propagate
separately through arc unateness (an inverter's rising output is timed
from its falling input), wire delays come from the extracted Elmore
values, and setup is checked at every sequential data pin and primary output.
``achieved frequency`` is the frequency at which the worst path just
closes — the paper's Figs. 9-11 metric.

One propagation times R *rows* of one extraction
(:func:`analyze_timing_rows`): row r scales every net's wire RC by its
own factor, which is how PVT corners and Monte-Carlo samples perturb a
routed design without re-extracting it.  :func:`analyze_timing` is the
one-row case every other caller uses.

A netlist's timing structure is a :class:`TimingGraph` owned by its
caller.  Callers that re-time one netlist build one and pass it to each
call: sizing per ``size_for_target`` call, the Monte-Carlo engine per
study.  ``analyze_corners``, signoff and path reports time once and
pass nothing, so each call builds a one-off graph.
:meth:`TimingGraph.refresh` patches drive-strength swaps in; any other
edit needs a new graph.  There is no module-level memo: a graph lives
exactly as long as its owner.

The combinational propagation — the hottest loop in the whole flow,
dominating the sizing stage — is a level-batched engine
(:func:`_propagate_comb`) that groups instances by logic level and
evaluates every timing-arc candidate of a level, in every row, through
one stacked-table interpolation (:class:`repro.sta.nldm.TableStack`).
The graph lists the clock tree as level batches of its own, timed by
the same engine ahead of the data batches; launch arcs go through the
same stack.  Hold (:mod:`repro.sta.hold`) runs its min-delay pass over
the same batches.

It agrees bit-for-bit with the scalar topological-order oracle in
``tests/reference/sta.py``, which folds one arc at a time: the batched
engine performs the same adds in the same order, replaces the running
strict-``>`` maximum with an argmax (first occurrence of the maximum —
exactly what first-wins strict updates keep), and resolves
``from_pin`` as the later of the two edges' winning arcs, which is
precisely the last arc the scalar loop would have accepted.  The
endpoint checks keep the scalar order too: TNS accumulates left to
right (``np.add.accumulate``, never the pairwise ``np.sum``) and WNS is
the first minimum in endpoint order.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from ..cells import Library, SequentialTiming, TimingArc
from ..core.telemetry import NULL_TRACER, current_tracer
from ..extract import Extraction
from ..netlist import Netlist
from .nldm import TableStack

#: Slew assumed at primary inputs, ps.
PRIMARY_INPUT_SLEW_PS = 10.0
#: Wire slew degradation per ps of Elmore delay.
SLEW_DEGRADATION = 1.8

_NEG = -1e18


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


def analyze_timing(netlist: Netlist, library: Library, extraction: Extraction,
                   period_ps: float, clock: str = "clk",
                   graph: TimingGraph | None = None) -> TimingReport:
    """Run setup analysis at ``period_ps``; see :class:`TimingReport`.

    The one-row case of :func:`analyze_timing_rows`, traced on the
    current tracer.  ``graph``, the caller's :class:`TimingGraph` of
    this netlist, library and clock, is refreshed and reused; without
    one the call builds its own.  The report is the same either way.
    """
    return analyze_timing_rows(netlist, library, extraction, None,
                               period_ps, clock, graph=graph,
                               tracer=current_tracer())[0]


def analyze_timing_rows(netlist: Netlist, library: Library,
                        extraction: Extraction, wire_factors,
                        period_ps: float, clock: str = "clk",
                        graph: TimingGraph | None = None,
                        tracer=None) -> list[TimingReport]:
    """Setup analysis of R perturbed views of one extraction, one pass.

    ``wire_factors`` is an (R, nets) array, nets in ``netlist.nets``
    order: row r scales each net's wire cap and sink Elmore delays by
    its factor and keeps its pin cap, exactly as timing a scaled copy
    of the extraction would.  ``None`` is one unscaled row.  Returns one
    report per row.  Telemetry goes to ``tracer`` only (none without
    one); ``graph`` is as for :func:`analyze_timing`.
    """
    if graph is None:
        graph = TimingGraph(netlist, library, clock)
    elif graph.netlist is not netlist or graph.library is not library:
        raise ValueError(
            "timing graph was built for another netlist or library")
    elif graph.clock != clock:
        raise ValueError(f"timing graph was built for clock "
                         f"{graph.clock!r}, not {clock!r}")
    else:
        graph.refresh()
    tracer = tracer if tracer is not None else NULL_TRACER
    par = _Parasitics(graph, extraction, wire_factors)
    st = _Arrivals(graph.n_nets, par.rows)
    net_from: dict[str, tuple[str, str] | None] = {}

    st.start(graph.input_ids, 0.0, PRIMARY_INPUT_SLEW_PS)
    net_from.update((name, None) for name in graph.inputs)
    clock_arrivals, insertion, skew = _clock_arrivals(graph, par, st,
                                                      tracer)
    _launch(graph, par, clock_arrivals, st)
    for inst_name, _arc, out_net in graph.launches:
        net_from[out_net] = (inst_name, "CK")
    ties = [(name, oid) for _i, name, oid in graph.ties
            if not st.timed[oid]]
    st.start([oid for _n, oid in ties], 0.0, PRIMARY_INPUT_SLEW_PS)
    for name, _oid in ties:
        net_from.setdefault(name, None)

    with tracer.span("kernel.sta.propagate"):
        _propagate_comb(graph, graph.levels, par, st, tracer)
    ar, af = st.arr_r, st.arr_f
    timed = st.timed | st.written

    # Endpoint checks, sequential data pins first, then primary outputs.
    sel = timed[graph.ep_net]
    ids = graph.ep_net[sel]
    wire = par.scale(par.elmore(graph.ep_sinks), graph.ep_net)[:, sel]
    ep_r = np.where(ar[:, ids] > _NEG / 2, ar[:, ids] + wire, _NEG)
    ep_f = np.where(af[:, ids] > _NEG / 2, af[:, ids] + wire, _NEG)
    required = (period_ps + clock_arrivals[:, graph.ep_seq[sel]]) \
        - graph.ep_setup[sel]
    po_ids = graph.output_ids[timed[graph.output_ids]]
    po_r, po_f = ar[:, po_ids], af[:, po_ids]
    po_arrival = np.where(po_f > po_r, po_f, po_r)
    arrival = np.concatenate(
        [np.where(ep_f > ep_r, ep_f, ep_r), po_arrival], axis=1)
    required = np.concatenate(
        [required, np.full(po_arrival.shape, period_ps)], axis=1)
    counted = np.concatenate(
        [np.ones(ep_r.shape, dtype=bool), po_arrival >= _NEG / 2], axis=1)
    slack = required - arrival
    rows = par.rows
    mins = np.zeros((rows, slack.shape[1] + 1))
    # min(slack, 0.0) and a strict `slack < wns` scan, as scalar code
    # would: a NaN slack adds to TNS but never becomes the WNS.
    mins[:, 1:] = np.where(counted & ~(0.0 < slack), slack, 0.0)
    tns = np.add.accumulate(mins, axis=1)[:, -1]
    endpoints = counted.sum(axis=1)
    if rows and endpoints.min() == 0:
        raise ValueError("design has no timing endpoints")
    ranked = np.where(counted & (slack < np.inf), slack, np.inf)
    worst = ranked.argmin(axis=1) if ranked.size else []

    names = [graph.endpoints[k][0] for k in np.flatnonzero(sel)] \
        + [f"PO:{graph.net_names[i]}" for i in po_ids]
    nets = ids.tolist() + po_ids.tolist()
    reports = []
    for r in range(rows):
        k = int(worst[r])
        wns = float(ranked[r, k])
        worst_endpoint = worst_net = ""
        worst_arrival = 0.0
        if wns < np.inf:
            worst_endpoint = names[k]
            worst_net = graph.net_names[nets[k]]
            worst_arrival = float(arrival[r, k])
        view = _ArrayFromMap(net_from, graph, st.from_inst, st.from_arc[r])
        reports.append(TimingReport(
            period_ps=period_ps,
            wns_ps=wns,
            tns_ps=float(tns[r]),
            worst_endpoint=worst_endpoint,
            critical_path=_trace_path(netlist, view, worst_net),
            clock_skew_ps=float(skew[r]),
            insertion_delay_ps=float(insertion[r]),
            endpoint_count=int(endpoints[r]),
            worst_arrival_ps=worst_arrival,
        ))
    tracer.gauge("kernel.sta.nets_timed", int(timed.sum()))
    return reports


class _Parasitics:
    """One extraction seen through R rows of per-net wire-RC factors.

    Nominal values are gathered from the extraction once per call, then
    scaled per row: ``loads`` is (R, nets) driver load, wire cap times
    the factor plus pin cap; ``sink_wires`` is the Elmore delay to every
    sink of the graph's netlist, and ``wires`` (R, wire pairs) its view
    at every timing-arc input.  A net the extraction lacks, or a sink no
    longer on that net, reads 0.0.  A row of ones reproduces the nominal
    bits, because ``x * 1.0 == x``.
    """

    def __init__(self, graph: TimingGraph, extraction: Extraction,
                 factors) -> None:
        self.extraction = extraction
        self.factors = factors
        self.rows = 1 if factors is None else len(factors)
        self.loads = extraction.loads_ff(graph.net_names, factors)
        self.sink_wires = extraction.elmore_ps(
            graph.net_names, graph.sinks, graph.sink_net)
        self.wires = self.scale(self.elmore(graph.wire_sinks),
                                graph.wire_net_ids)
        if not self.wires.shape[1]:
            self.wires = np.zeros((self.rows, 1))  # padded lanes read 0

    def elmore(self, sinks) -> np.ndarray:
        """Nominal wire delay to each of the graph's ``sinks``."""
        return self.sink_wires[sinks]

    def scale(self, nominal: np.ndarray, net_ids) -> np.ndarray:
        """(R, k): each row's view of per-sink values on ``net_ids``."""
        if self.factors is None:
            return nominal[None, :]
        return nominal * self.factors[:, net_ids]


class _Arrivals:
    """Rise/fall arrivals and slews of every net, R rows deep.

    ``timed`` marks the nets started by hand (inputs, the clock net,
    launches, ties); ``written`` the nets the propagation drives, the
    clock tree's included.  ``from_inst``/``from_arc`` are the provenance the
    critical path is traced from: the driving row of the graph and,
    per row, the index of the arc that set the worst arrival.
    """

    def __init__(self, n_nets: int, rows: int) -> None:
        self.arr_r = np.full((rows, n_nets), _NEG)
        self.arr_f = np.full((rows, n_nets), _NEG)
        self.slw_r = np.full((rows, n_nets), PRIMARY_INPUT_SLEW_PS)
        self.slw_f = np.full((rows, n_nets), PRIMARY_INPUT_SLEW_PS)
        self.timed = np.zeros(n_nets, dtype=bool)
        self.written = np.zeros(n_nets, dtype=bool)
        self.from_inst = np.full(n_nets, -1, dtype=np.int64)
        self.from_arc = np.full((rows, n_nets), -1, dtype=np.int64)

    def start(self, ids, arr_r, slw_r, arr_f=None, slw_f=None) -> None:
        """Time nets ``ids`` before propagation (fall defaults to rise)."""
        self.arr_r[:, ids] = arr_r
        self.arr_f[:, ids] = arr_r if arr_f is None else arr_f
        self.slw_r[:, ids] = slw_r
        self.slw_f[:, ids] = slw_r if slw_f is None else slw_f
        self.timed[ids] = True


def _launch(graph: TimingGraph, par: _Parasitics, clock_arrivals,
            st: _Arrivals) -> None:
    """Time every clock-to-output arc from its cell's CK arrival.

    A launch's input is a clean edge at the CK arrival, so each output
    edge's candidates are equal and the first one wins, as in
    :func:`_propagate_comb`.
    """
    if not graph.launches:
        return
    t = clock_arrivals[:, graph.launch_seq]
    loads = par.loads[:, graph.launch_out]
    slew = np.full(loads.shape, PRIMARY_INPUT_SLEW_PS)
    ok = t >= _NEG / 2
    out = []
    for (gd, rd), (gt, rt) in graph.launch_tables:
        delay = graph.stack.evaluate(gd, rd, slew, loads)
        trans = graph.stack.evaluate(gt, rt, slew, loads)
        out += [np.where(ok, t + delay, _NEG),
                np.where(ok, trans, PRIMARY_INPUT_SLEW_PS)]
    st.start(graph.launch_out, *out)


def _clock_arrivals(graph: TimingGraph, par: _Parasitics, st: _Arrivals,
                    tracer):
    """Time the clock tree's batches from the clock net at 0 ps.

    The clock net starts with the primary-input slew whether or not it
    is a primary input.  Flops latch on the rising edge, so a cell's
    capture arrival is the rise arrival on its clock pin's net plus
    the pin's wire delay.  Returns the (R, sequential cells) capture
    arrivals (0.0 where no clock arrives) and each row's insertion
    delay and skew over the cells the clock reaches.
    """
    if graph.clock_id is not None:
        st.start([graph.clock_id], 0.0, PRIMARY_INPUT_SLEW_PS)
    with tracer.span("kernel.sta.propagate"):
        _propagate_comb(graph, graph.clock_levels, par, st, tracer)
    reached = st.arr_r[:, graph.ck_net] \
        + par.scale(par.elmore(graph.ck_sinks), graph.ck_net)
    arrivals = np.zeros((par.rows, len(graph.seq_names)))
    arrivals[:, graph.ck_seq] = reached
    if not reached.shape[1]:
        return arrivals, np.zeros(par.rows), np.zeros(par.rows)
    insertion = reached.max(axis=1)
    return arrivals, insertion, insertion - reached.min(axis=1)


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
                 "arc_idx", "wire_slot")


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

    It lists the clock tree of ``clock`` once: ``clock_levels`` batch
    the combinational cells the clock net reaches through
    non-sequential sinks, ahead of the data cells' ``levels``, and
    ``ck_seq``/``ck_sinks`` name the clock pin of every sequential cell
    the tree reaches.
    """

    def __init__(self, netlist: Netlist, library: Library,
                 clock: str = "clk") -> None:
        self.netlist = netlist
        self.library = library
        self.clock = clock
        self._build()

    def _build(self) -> None:
        netlist = self.netlist
        self.stack = TableStack()
        self.templates: dict[str, _MasterTemplate] = {}
        self.net_names = list(netlist.nets)
        self.net_id = {name: i for i, name in enumerate(self.net_names)}
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
        self.seq_index = {name: i for i, name in enumerate(self.seq_names)}
        #: Every ``(instance, pin)`` sink, nets in netlist order; sink s
        #: is on net ``sink_net[s]``, and ``sink_at`` maps a sink to s.
        self.sinks = [pin for net in nets.values() for pin in net.sinks]
        self.sink_net = np.repeat(np.arange(self.n_nets), np.array(
            [len(net.sinks) for net in nets.values()], dtype=np.intp))
        self.sink_at = dict(zip(self.sinks, range(len(self.sinks))))
        self._list_sequential()
        self.inputs = [n.name for n in nets.values() if n.is_primary_input]
        self.input_ids = np.array([self.net_id[n] for n in self.inputs],
                                  dtype=np.intp)
        self.outputs = [n.name for n in nets.values()
                        if n.is_primary_output and not n.is_primary_input]
        self.output_ids = np.array([self.net_id[n] for n in self.outputs],
                                   dtype=np.intp)
        tree = self._list_clock_tree()

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
        # The clock tree's batches sort ahead of the data batches.  No
        # data cell reads a clock-tree net, so the data cells keep
        # their levels.
        by_level: dict[tuple[bool, int], list[int]] = {}
        for i in range(n):
            key = (comb_names[i] not in tree, level[i])
            by_level.setdefault(key, []).append(i)

        #: The sink of every arc input, all batches.
        self.wire_sinks = []
        batches = [self._build_level(rows, out_names)
                   for _key, rows in sorted(by_level.items())]
        n_clock = sum(1 for data, _lvl in by_level if not data)
        self.clock_levels = batches[:n_clock]
        self.levels = batches[n_clock:]
        self.wire_sinks = np.array(self.wire_sinks, dtype=np.intp)
        self.wire_net_ids = self.sink_net[self.wire_sinks]
        #: row -> (batch, row-within-batch) for master refreshes.
        self.row_pos = {i: (lvl, r) for lvl in batches
                        for r, i in enumerate(lvl.rows.tolist())}

    def _list_clock_tree(self) -> set[str]:
        """The cells ``clock`` reaches through non-sequential sinks.

        Also records the sink each sequential cell it reaches takes its
        clock on: ``ck_seq`` (the cell), ``ck_sinks`` and ``ck_net``.
        """
        nets, instances = self.netlist.nets, self.netlist.instances
        self.clock_id = self.net_id.get(self.clock)
        tree: set[str] = set()
        clock_pin: dict[int, int] = {}
        frontier = [] if self.clock_id is None else [self.clock]
        while frontier:
            for sink in nets[frontier.pop()].sinks:
                inst = instances[sink[0]]
                t = self._template(inst.master)
                if t.is_seq:
                    clock_pin[self.seq_index[inst.name]] = self.sink_at[sink]
                elif t.out_pin is not None and inst.name not in tree:
                    tree.add(inst.name)
                    frontier.append(inst.connections[t.out_pin])
        self.ck_seq = np.array(list(clock_pin), dtype=np.intp)
        self.ck_sinks = np.array(list(clock_pin.values()), dtype=np.intp)
        self.ck_net = self.sink_net[self.ck_sinks]
        return tree

    def _template(self, master_name: str) -> _MasterTemplate:
        t = self.templates.get(master_name)
        if t is None:
            t = _MasterTemplate(self.library[master_name])
            self.templates[master_name] = t
        return t

    def _list_sequential(self) -> None:
        """List launch arcs and endpoints from the current masters.

        Also their array forms: each launch's cell, output net and
        (rise, fall) x (delay, transition) table rows, and each
        endpoint's cell, net, sink and setup.
        """
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

        def ids(values) -> np.ndarray:
            return np.array(values, dtype=np.intp)

        def refs(tables) -> tuple[np.ndarray, np.ndarray]:
            pairs = [self.stack.add(t) for t in tables]
            return ids([g for g, _ in pairs]), ids([r for _, r in pairs])

        arcs = [arc for _n, arc, _o in self.launches]
        self.launch_seq = ids([self.seq_index[n] for n, _a, _o in
                               self.launches])
        self.launch_out = ids([self.net_id[o] for _n, _a, o in
                               self.launches])
        self.launch_tables = [
            (refs(a.rise_delay for a in arcs),
             refs(a.rise_transition for a in arcs)),
            (refs(a.fall_delay for a in arcs),
             refs(a.fall_transition for a in arcs))]
        self.ep_sinks = ids([self.sink_at[n, p] for n, p, _d, _s in
                             self.endpoints])
        self.ep_seq = ids([self.seq_index[n] for n, _p, _d, _s in
                           self.endpoints])
        self.ep_net = ids([self.net_id[d] for _n, _p, d, _s in
                           self.endpoints])
        self.ep_setup = np.array([s.setup_ps for *_x, s in self.endpoints],
                                 dtype=float)

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
        for r, i in enumerate(rows):
            t = tmpls[r]
            conn = instances[self.comb_names[i]].connections
            arc_info: list[tuple[int, int] | None] = []
            for fp in t.arc_from_pins:
                in_net = conn.get(fp)
                if in_net is None:
                    arc_info.append(None)
                    continue
                arc_info.append((self.net_id[in_net], len(self.wire_sinks)))
                self.wire_sinks.append(self.sink_at[self.comb_names[i], fp])
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
            lvl, r = self.row_pos[i]
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
    """One row's `net_from` view over the propagation's provenance arrays."""

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


def _propagate_comb(graph: TimingGraph, batches: list[_LevelBatch],
                    par: _Parasitics, st: _Arrivals, tracer) -> None:
    """Time the outputs of ``batches``: all arcs of a batch, in every
    row, in one pass.

    Reads the nets ``st`` timed or wrote on entry and writes each
    batch's outputs into it, with their provenance.
    """
    arr_r, arr_f, slw_r, slw_f = st.arr_r, st.arr_f, st.slw_r, st.slw_f
    rows = par.rows
    rsel = np.arange(rows)[:, None]
    counting = tracer.enabled
    evals = 0
    batch_max = 0
    for lvl in batches:
        n = len(lvl.out_names)
        batch_max = max(batch_max, n)
        loads = par.loads[:, lvl.out_ids]
        in_ids = lvl.in_ids
        arr_sel = np.where(lvl.rise_in, arr_r[:, in_ids], arr_f[:, in_ids])
        slw_sel = np.where(lvl.rise_in, slw_r[:, in_ids], slw_f[:, in_ids])
        w = par.wires[:, lvl.wire_slot]
        # Same three adds, same order, as a scalar fold of one arc:
        # (arrival + wire) + delay, slew + (1.8 * wire).
        arr_in = arr_sel + w
        slw_in = slw_sel + SLEW_DEGRADATION * w
        valid = lvl.present & (arr_sel > _NEG / 2)
        if counting:
            evals += int(valid.sum())
        delay = graph.stack.evaluate(lvl.gid_d, lvl.row_d, slw_in,
                                     loads[:, :, None])
        cand = np.where(valid, arr_in + delay, -np.inf)

        lane = np.arange(n)
        edge_arc = []
        for lo, hi, arr_o, slw_o in ((0, lvl.R, arr_r, slw_r),
                                     (lvl.R, lvl.R + lvl.F, arr_f, slw_f)):
            if hi == lo:
                edge_arc.append(np.full((rows, n), -1, dtype=np.int64))
                continue
            block = cand[:, :, lo:hi]
            idx = np.argmax(block, axis=2)
            best = block[rsel, lane, idx]
            has = valid[:, :, lo:hi].any(axis=2)
            wcol = idx + lo
            trans = graph.stack.evaluate(lvl.gid_t[lane, wcol],
                                         lvl.row_t[lane, wcol],
                                         slw_in[rsel, lane, wcol], loads)
            arr_o[:, lvl.out_ids] = np.where(has, best, _NEG)
            slw_o[:, lvl.out_ids] = np.where(has, trans,
                                             PRIMARY_INPUT_SLEW_PS)
            edge_arc.append(np.where(has, lvl.arc_idx[lane, wcol], -1))
        st.written[lvl.out_ids] = True
        st.from_inst[lvl.out_ids] = lvl.rows
        st.from_arc[:, lvl.out_ids] = np.maximum(edge_arc[0], edge_arc[1])

    if counting:
        tracer.count("kernel.sta.insts",
                     sum(len(lvl.rows) for lvl in batches) * rows)
        tracer.count("kernel.sta.delay_evals", evals)
        tracer.count("kernel.sta.batches", len(batches))
        tracer.gauge("kernel.sta.batch_max", batch_max)


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
