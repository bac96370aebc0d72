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
study, a hold check and ``fix_hold`` (:mod:`repro.sta.hold`) per
signoff.  ``analyze_corners``, signoff and path reports time once and
pass nothing, so each call builds a one-off graph.
:meth:`TimingGraph.refresh` patches drive-strength swaps in; any other
edit needs a new graph.  There is no module-level memo: a graph lives
exactly as long as its owner.  A graph registers each master's
candidate lanes once, in a lane table, and builds each level batch with
one gather from it.

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

from dataclasses import dataclass
from operator import attrgetter

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
    graph = _graph_for(netlist, library, clock, graph)
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


def _graph_for(netlist: Netlist, library: Library, clock: str,
               graph: TimingGraph | None) -> TimingGraph:
    """The caller's ``graph``, refreshed, or a new one without it.

    A graph built for another netlist, library or clock is rejected.
    """
    if graph is None:
        return TimingGraph(netlist, library, clock)
    if graph.netlist is not netlist or graph.library is not library:
        raise ValueError(
            "timing graph was built for another netlist or library")
    if graph.clock != clock:
        raise ValueError(f"timing graph was built for clock "
                         f"{graph.clock!r}, not {clock!r}")
    graph.refresh()
    return graph


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

    ``arr``/``slw`` are (R, 2, nets): ``arr_r``/``slw_r`` view the rise
    edge and ``arr_f``/``slw_f`` the fall edge, so one gather reads any
    mix of the two.  ``timed`` marks the nets started by hand (inputs,
    the clock net, launches, ties); ``written`` the nets the propagation
    drives, the clock tree's included.  ``from_inst``/``from_arc`` are
    the provenance the critical path is traced from: the driving row of
    the graph and, per row, the index of the arc that set the worst
    arrival.
    """

    def __init__(self, n_nets: int, rows: int) -> None:
        self.arr = np.full((rows, 2, n_nets), _NEG)
        self.slw = np.full((rows, 2, n_nets), PRIMARY_INPUT_SLEW_PS)
        self.arr_r, self.arr_f = self.arr[:, 0], self.arr[:, 1]
        self.slw_r, self.slw_f = self.slw[:, 0], self.slw[:, 1]
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


#: One candidate lane: its arc's index, input edge, column within its
#: output edge's block, whether that block is the fall edge's, and the
#: (group, row) refs of its delay and transition tables.
_LANE = np.dtype([("arc", np.int32), ("rise_in", np.bool_),
                  ("col", np.intp), ("fall", np.bool_),
                  ("gid_d", np.intp), ("row_d", np.intp),
                  ("gid_t", np.intp), ("row_t", np.intp)])


class _LaneTable:
    """Every combinational master's candidate lanes, one row per lane.

    A master registers once per graph (:meth:`add`): its rise-edge
    lanes, then its fall-edge lanes, each in exactly the order the
    scalar loop evaluates them: arcs in declaration order, and for a
    non-unate arc the rising input first.  Its tables go into ``stack``
    as it registers.
    """

    def __init__(self, stack: TableStack) -> None:
        self.stack = stack
        self._lanes: list[tuple] = []
        #: Per registered master: first lane, rise lanes, fall lanes, arcs.
        self._spans: list[tuple[int, int, int, int]] = []
        self._arrays: tuple[np.ndarray, np.ndarray] | None = None

    def add(self, arcs: list[TimingArc]) -> int:
        """Register one master's lanes; returns its span index."""
        first = len(self._lanes)
        counts = []
        for fall in (False, True):
            col = 0
            for ai, arc in enumerate(arcs):
                refs = self.stack.add(
                    arc.fall_delay if fall else arc.rise_delay) \
                    + self.stack.add(arc.fall_transition if fall
                                     else arc.rise_transition)
                for rise_in in arc.input_edges_for(not fall):
                    self._lanes.append((ai, rise_in, col, fall) + refs)
                    col += 1
            counts.append(col)
        self._spans.append((first, counts[0], counts[1], len(arcs)))
        self._arrays = None
        return len(self._spans) - 1

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(lanes as a ``_LANE`` record array, spans as an (n, 4) array)."""
        if self._arrays is None:
            self._arrays = (np.array(self._lanes, dtype=_LANE),
                            np.array(self._spans, dtype=np.intp
                                     ).reshape(-1, 4))
        return self._arrays


class _MasterTemplate:
    """Per-master propagation recipe shared by all its instances.

    A combinational master's candidate lanes are span ``span`` of its
    graph's :class:`_LaneTable`.
    """

    __slots__ = ("is_seq", "is_tie", "out_pin", "in_pin_names",
                 "arc_from_pins", "sig", "span")

    def __init__(self, master, lanes: _LaneTable) -> None:
        self.is_seq = master.is_sequential
        self.is_tie = master.function in ("TIEHI", "TIELO")
        outs = master.output_pins
        self.out_pin = outs[0].name if outs else None
        self.in_pin_names = [p.name for p in master.input_pins]
        self.arc_from_pins = [arc.from_pin for arc in master.arcs]
        self.span = -1 if self.is_seq else lanes.add(master.arcs)
        # Structure signature: a drive-strength swap that preserves it
        # can be patched in place; anything else forces a graph rebuild.
        self.sig = (self.is_seq, self.is_tie, self.out_pin,
                    tuple(self.arc_from_pins),
                    tuple(arc.unate for arc in master.arcs))


class _LevelBatch:
    """All candidate lanes of one logic level, padded to (n, R + F)."""

    __slots__ = ("rows", "out_ids", "R", "F", "in_ids", "rise_in",
                 "present", "gid_d", "row_d", "gid_t", "row_t", "arc_idx",
                 "wire_slot")


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``starts[k], ..., starts[k] + counts[k] - 1`` for every k, joined."""
    ends = np.cumsum(counts)
    return np.repeat(starts - (ends - counts), counts) \
        + np.arange(ends[-1] if len(ends) else 0)


def _levels(n: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Each of ``n`` nodes' longest-path depth over the edges
    ``src -> dst``: Kahn's algorithm, one wave of ready nodes at a time.
    """
    order = np.argsort(src, kind="stable")
    succ = dst[order]
    first = np.searchsorted(src[order], np.arange(n + 1))
    indeg = np.bincount(dst, minlength=n)
    level = np.zeros(n, dtype=np.intp)
    wave = np.flatnonzero(indeg == 0)
    depth = done = 0
    while len(wave):
        level[wave] = depth
        done += len(wave)
        nxt = succ[_ranges(first[wave], first[wave + 1] - first[wave])]
        indeg -= np.bincount(nxt, minlength=n)
        wave = np.unique(nxt[indeg[nxt] == 0])
        depth += 1
    if done != n:
        raise ValueError("combinational loop detected")
    return level


#: An instance's master name.
_MASTER = attrgetter("master")


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

    Each master's candidate lanes are registered once, in a
    :class:`_LaneTable`; a batch is one gather from it plus each
    instance's arc-input nets and wire slots.
    """

    def __init__(self, netlist: Netlist, library: Library,
                 clock: str = "clk") -> None:
        self.netlist = netlist
        self.library = library
        self.clock = clock
        self._build()

    def _build(self) -> None:
        netlist = self.netlist
        instances, nets = netlist.instances, netlist.nets
        self.stack = TableStack()
        self.lanes = _LaneTable(self.stack)
        self.templates: dict[str, _MasterTemplate] = {}
        self.net_names = list(nets)
        self.net_id = net_id = {name: i for i, name in
                                enumerate(self.net_names)}
        self.n_nets = len(self.net_names)
        self.size = (len(instances), self.n_nets)
        #: Every ``(instance, pin)`` sink, nets in netlist order; sink s
        #: is on net ``sink_net[s]``, and ``sink_at`` maps a sink to s.
        self.sinks = [pin for net in nets.values() for pin in net.sinks]
        self.sink_net = np.repeat(np.arange(self.n_nets), np.array(
            [len(net.sinks) for net in nets.values()], dtype=np.intp))
        self.sink_at = sink_at = dict(zip(self.sinks,
                                          range(len(self.sinks))))

        # One pass over the instances.  A combinational row keeps its
        # output net, its arcs' inputs in declaration order (the net, -1
        # where the pin is unconnected, and its sink) and the nets of
        # its input pins, whose drivers order the levels.
        template = self._template
        comb: list = []
        tmpls: list[_MasterTemplate] = []
        out_ids: list[int] = []
        arc_net: list[int] = []
        arc_sink: list[int] = []
        pin_net: list[int] = []
        self.ties: list[tuple[str, str, int]] = []
        self.seq_insts: list = []
        for inst in instances.values():
            t = template(inst.master)
            if t.is_seq:
                self.seq_insts.append(inst)
                continue
            if t.out_pin is None:
                continue
            conn = inst.connections
            out_net = conn[t.out_pin]
            if t.is_tie:
                self.ties.append((inst.name, out_net, net_id[out_net]))
                continue
            comb.append(inst)
            tmpls.append(t)
            out_ids.append(net_id[out_net])
            for pin in t.arc_from_pins:
                in_net = conn.get(pin)
                if in_net is None:
                    arc_net.append(-1)
                    arc_sink.append(-1)
                else:
                    arc_net.append(net_id[in_net])
                    arc_sink.append(sink_at[inst.name, pin])
            pin_net += [net_id[conn[pin]] for pin in t.in_pin_names]
        self.comb_insts = comb
        self.comb_names = [inst.name for inst in comb]
        self.comb_masters = [inst.master for inst in comb]
        self.row_template = tmpls
        self.out_ids = np.array(out_ids, dtype=np.intp)
        self.arc_net = np.array(arc_net, dtype=np.intp)
        self.arc_sink = np.array(arc_sink, dtype=np.intp)
        self.row_span = np.array([t.span for t in tmpls], dtype=np.intp)
        self.seq_names = [inst.name for inst in self.seq_insts]
        self.seq_index = {name: i for i, name in enumerate(self.seq_names)}
        self._list_sequential()
        self.inputs = [n.name for n in nets.values() if n.is_primary_input]
        self.input_ids = np.array([net_id[n] for n in self.inputs],
                                  dtype=np.intp)
        self.outputs = [n.name for n in nets.values()
                        if n.is_primary_output and not n.is_primary_input]
        self.output_ids = np.array([net_id[n] for n in self.outputs],
                                   dtype=np.intp)
        tree = self._list_clock_tree()

        # Logic levels over the same dependency edges the reference
        # topological order uses (non-clock input pins, combinational
        # drivers) — every arc fanin therefore sits at a lower level.
        n = len(comb)
        row_of = {name: i for i, name in enumerate(self.comb_names)}
        driver = np.array([-1 if net.driver is None
                           else row_of.get(net.driver[0], -1)
                           for net in nets.values()], dtype=np.intp)
        n_pins = np.array([len(t.in_pin_names) for t in tmpls],
                          dtype=np.intp)
        src = driver[np.array(pin_net, dtype=np.intp)]
        dst = np.repeat(np.arange(n), n_pins)[src >= 0]
        level = _levels(n, src[src >= 0], dst)
        # The clock tree's batches sort ahead of the data batches.  No
        # data cell reads a clock-tree net, so the data cells keep
        # their levels.
        in_tree = np.zeros(n, dtype=bool)
        in_tree[[row_of[name] for name in tree if name in row_of]] = True
        key = level + np.where(in_tree, 0, n)
        order = np.argsort(key, kind="stable")
        cuts = np.flatnonzero(np.diff(key[order])) + 1
        batches = np.split(order, cuts) if n else []
        n_clock = len(np.unique(key[in_tree]))
        levels = self._build_levels(batches)
        self.clock_levels = levels[:n_clock]
        self.levels = levels[n_clock:]
        self.wire_net_ids = self.sink_net[self.wire_sinks]

    def _build_levels(self, batches: list[np.ndarray]) -> list[_LevelBatch]:
        """The level batches of ``batches``' combinational rows, in order.

        One gather from the lane table fills every batch: each lane of
        each row lands at its row and column of its batch's (n, R + F)
        grid where its arc input is connected, and a field's grids share
        one buffer.  Numbers the wire slots (every connected arc input,
        batch by batch, row by row, arcs in declaration order) and sets
        ``wire_sinks`` (each slot's sink) and ``row_pos`` (each row's
        batch and position in it).
        """
        if not batches:
            self.wire_sinks = np.zeros(0, dtype=np.intp)
            self.row_pos = np.zeros((0, 2), dtype=np.intp)
            return []
        lanes, spans = self.lanes.arrays()
        order = np.concatenate(batches)
        n_arcs = spans[self.row_span, 3]
        arc0 = (np.cumsum(n_arcs) - n_arcs)[order]
        span = spans[self.row_span[order]]
        sizes = np.array([len(rows) for rows in batches])
        start = np.cumsum(sizes) - sizes
        batch = np.repeat(np.arange(len(batches)), sizes)
        self.row_pos = np.empty((len(order), 2), dtype=np.intp)
        self.row_pos[order, 0] = batch
        self.row_pos[order, 1] = np.arange(len(order)) - start[batch]

        wired = _ranges(arc0, span[:, 3])
        wired = wired[self.arc_net[wired] >= 0]
        slot = np.zeros(len(self.arc_net), dtype=np.intp)
        slot[wired] = np.arange(len(wired))
        self.wire_sinks = self.arc_sink[wired]

        R = np.maximum.reduceat(span[:, 1], start)
        F = np.maximum.reduceat(span[:, 2], start)
        width = R + F
        base = np.cumsum(sizes * width) - sizes * width
        count = span[:, 1] + span[:, 2]
        lane = lanes[_ranges(span[:, 0], count)]
        row = np.repeat(np.arange(len(order)), count)
        arc = arc0[row] + lane["arc"]
        net = self.arc_net[arc]
        on = net >= 0
        lane, arc, net, row = lane[on], arc[on], net[on], row[on]
        b = batch[row]
        at = base[b] + (row - start[b]) * width[b] + lane["col"] \
            + R[b] * lane["fall"]
        total = int(base[-1] + sizes[-1] * width[-1])

        def field(values, fill, dtype=np.intp) -> np.ndarray:
            flat = np.full(total, fill, dtype=dtype)
            flat[at] = values
            return flat

        fields = {"in_ids": field(net, 0),
                  "rise_in": field(lane["rise_in"], False, bool),
                  "present": field(True, False, bool),
                  "arc_idx": field(lane["arc"], -1, np.int32),
                  "wire_slot": field(slot[arc], 0)}
        for name in ("gid_d", "row_d", "gid_t", "row_t"):
            fields[name] = field(lane[name], 0)
        levels = []
        for rows, lo, n, r, f in zip(batches, base.tolist(), sizes.tolist(),
                                     R.tolist(), F.tolist()):
            lvl = _LevelBatch()
            lvl.rows, lvl.out_ids = rows, self.out_ids[rows]
            lvl.R, lvl.F = r, f
            for name, flat in fields.items():
                setattr(lvl, name, flat[lo:lo + n * (r + f)].reshape(n, r + f))
            levels.append(lvl)
        return levels

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
            t = _MasterTemplate(self.library[master_name], self.lanes)
            self.templates[master_name] = t
        return t

    def _list_sequential(self) -> None:
        """List launch arcs and endpoints from the current masters.

        Also their array forms: each launch's cell, output net and
        (rise, fall) x (delay, transition) table rows, and each
        endpoint's cell, net, sink and setup.  Each master's arcs, pins
        and table refs are read once.
        """
        self.seq_masters = [inst.master for inst in self.seq_insts]
        self.launches: list[tuple[str, TimingArc, str]] = []
        self.endpoints: list[tuple[str, str, str, SequentialTiming]] = []
        cells: dict[str, tuple] = {}
        refs: list[tuple[int, ...]] = []
        add = self.stack.add
        for inst in self.seq_insts:
            cell = cells.get(inst.master)
            if cell is None:
                m = self.library[inst.master]
                cell = cells[inst.master] = (
                    [(arc, add(arc.rise_delay) + add(arc.rise_transition)
                      + add(arc.fall_delay) + add(arc.fall_transition))
                     for arc in m.arcs],
                    [p.name for p in m.input_pins], m.sequential)
            arcs, pins, timing = cell
            conn = inst.connections
            for arc, arc_refs in arcs:
                if arc.to_pin in conn:
                    self.launches.append((inst.name, arc, conn[arc.to_pin]))
                    refs.append(arc_refs)
            self.endpoints += [(inst.name, p, conn[p], timing)
                               for p in pins if p in conn]

        def ids(values) -> np.ndarray:
            return np.array(values, dtype=np.intp)

        t = ids(refs).reshape(-1, 8).T
        self.launch_tables = [((t[0], t[1]), (t[2], t[3])),
                              ((t[4], t[5]), (t[6], t[7]))]
        self.launch_seq = ids([self.seq_index[n] for n, _a, _o in
                               self.launches])
        self.launch_out = ids([self.net_id[o] for _n, _a, o in
                               self.launches])
        self.ep_sinks = ids([self.sink_at[n, p] for n, p, _d, _s in
                             self.endpoints])
        self.ep_seq = ids([self.seq_index[n] for n, _p, _d, _s in
                           self.endpoints])
        self.ep_net = ids([self.net_id[d] for _n, _p, d, _s in
                           self.endpoints])
        self.ep_setup = np.array([s.setup_ps for *_x, s in self.endpoints],
                                 dtype=float)

    def refresh(self) -> None:
        """Patch drive-strength swaps in place; rebuild on anything else.

        A swap keeping the master's structure signature rewrites only
        its instance's table refs (or relists a sequential cell's
        launches and endpoints); a changed signature or cell or net
        count rebuilds.  An unchanged netlist costs one pass over the
        instances' master names.
        """
        netlist = self.netlist
        if (len(netlist.instances), len(netlist.nets)) != self.size \
                or not self._patch():
            self._build()

    def _patch(self) -> bool:
        masters = list(map(_MASTER, self.comb_insts))
        if masters != self.comb_masters:
            batches = self.clock_levels + self.levels
            for i, (new, old) in enumerate(zip(masters, self.comb_masters)):
                if new == old:
                    continue
                t = self._template(new)
                if t.sig != self.row_template[i].sig:
                    return False
                # Connectivity is untouched by a drive swap, and an
                # equal signature lays the lanes out alike: rewrite the
                # table refs of the row's present lanes.
                lanes, spans = self.lanes.arrays()
                first, n_rise, n_fall, _arcs = spans[t.span]
                b, r = self.row_pos[i]
                lvl = batches[b]
                lane = lanes[first:first + n_rise + n_fall]
                col = lane["col"] + lvl.R * lane["fall"]
                on = lvl.present[r, col]
                lane, col = lane[on], col[on]
                for name in ("gid_d", "row_d", "gid_t", "row_t"):
                    getattr(lvl, name)[r, col] = lane[name]
                self.row_template[i] = t
                self.row_span[i] = t.span
            self.comb_masters = masters
        if list(map(_MASTER, self.seq_insts)) != self.seq_masters:
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
    rows, n_nets = par.rows, graph.n_nets
    arr = st.arr.reshape(rows, 2 * n_nets)
    slw = st.slw.reshape(rows, 2 * n_nets)
    first = np.arange(rows)[:, None]
    counting = tracer.enabled
    evals = 0
    batch_max = 0
    for lvl in batches:
        n, width = lvl.in_ids.shape
        batch_max = max(batch_max, n)
        loads = par.loads[:, lvl.out_ids]
        # Each lane's input edge: the rise half at its net id, the fall
        # half ``n_nets`` further on.
        edge = np.where(lvl.rise_in, lvl.in_ids, lvl.in_ids + n_nets)
        arr_sel = arr[:, edge]
        slw_sel = slw[:, edge]
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

        # Each output edge takes its block's first maximum (rise lanes,
        # then fall lanes), as the scalar fold's strict ``>`` keeps it.
        # Both edges are one (R, 2n) pass: the rise edge's n outputs,
        # then the fall edge's.  Every arc has a lane on each edge, so a
        # batch has lanes on both edges or on none.
        out = np.concatenate([lvl.out_ids, lvl.out_ids + n_nets])
        if width:
            wcol = np.concatenate(
                [cand[:, :, :lvl.R].argmax(axis=2),
                 cand[:, :, lvl.R:].argmax(axis=2) + lvl.R], axis=1)
            has = np.concatenate(
                [np.logical_or.reduce(valid[:, :, :lvl.R], axis=2),
                 np.logical_or.reduce(valid[:, :, lvl.R:], axis=2)], axis=1)
            # The winner's place in the flat (n, width) batch arrays and
            # in the flat (R, n, width) lane arrays.
            cell = np.arange(n) * width
            here = np.concatenate([cell, cell]) + wcol
            win = first * (n * width) + here
            trans = graph.stack.evaluate(
                lvl.gid_t.take(here), lvl.row_t.take(here),
                slw_in.take(win), np.concatenate([loads, loads], axis=1))
            arr[:, out] = np.where(has, cand.take(win), _NEG)
            slw[:, out] = np.where(has, trans, PRIMARY_INPUT_SLEW_PS)
            arcs = np.where(has, lvl.arc_idx.take(here), -1)
            from_arc = np.maximum(arcs[:, :n], arcs[:, n:])
        else:
            arr[:, out] = _NEG
            slw[:, out] = PRIMARY_INPUT_SLEW_PS
            from_arc = -1
        st.written[lvl.out_ids] = True
        st.from_inst[lvl.out_ids] = lvl.rows
        st.from_arc[:, lvl.out_ids] = from_arc

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
