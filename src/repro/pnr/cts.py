"""Clock tree synthesis: buffered recursive bisection, single- or dual-sided.

The paper uses the conventional frontside CTS stage unchanged (Section
III.C); the companion work by the same group — Jiang et al., "A
Systematic Approach for Multi-objective Double-side Clock Tree
Synthesis" (arXiv:2503.12512) — shows that on a dual-sided wafer the
clock distribution itself should exploit both metal stacks.  This
module implements both:

* **Topology** (both modes): sinks are recursively bisected along the
  wider dimension until clusters fit a leaf buffer's fanout budget,
  buffers are inserted at cluster centroids, and upper levels are
  buffered the same way until a single root buffer remains.  The tree
  is materialized as real instances and nets, so routing, RC
  extraction, STA (skew, insertion delay) and power all see it.

* **Side partitioning** (``mode="dual"``): every tree net (a clock
  buffer's output) is assigned to the frontside (FM*) or backside
  (BM*) metal stack.  Candidate partitions assign the top ``k`` tree
  levels — the long trunk wires — to the backside, for every ``k``,
  and are scored with a multi-objective cost over (a) estimated global
  skew, (b) switched clock wire capacitance (the clock-power proxy),
  and (c) deviation from the requested backside wirelength fraction.
  The winning assignment is recorded in the report's ``net_sides`` and
  honored by routing (``decompose_nets`` side overrides), so backside
  clock wires really land on BM* layers in the merged DEF, pick up BM
  RC in extraction, and inherit the FFET overlay sensitivity in the
  Monte-Carlo variation model.

The estimation delay model is deliberately independent of the
configured routing-layer counts (it prices wires at the fixed
:data:`CLOCK_ESTIMATION_LEVEL` of the full Table II stackup), so the
CTS stage's artifact is a pure function of its declared config slice
and layer-split sweeps still replay the shared placement+CTS prefix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..cells import Library
from ..netlist import Netlist
from ..tech import Side, TechNode
from .geometry import Point
from .placement import Placement

LEAF_BUFFER = "CLKBUFD4"
TRUNK_BUFFER = "CLKBUFD8"

#: Metal level used to price clock wires in the estimation model, per
#: side.  Fixed against the *full* Table II stackup — never the
#: configured ``front_layers``/``back_layers`` limits, which first
#: enter the stage-key chain at routing — so the CTS artifact depends
#: only on the CTS config slice.
CLOCK_ESTIMATION_LEVEL = 6
#: Intrinsic stage delay of one clock buffer in the estimation model, ps.
BUFFER_DELAY_PS = 12.0

#: Multi-objective weights of the dual-sided partitioner: estimated
#: skew, switched clock wire capacitance (power proxy), and deviation
#: from the requested backside wirelength fraction.
SKEW_WEIGHT = 1.0
POWER_WEIGHT = 0.5
FRACTION_WEIGHT = 4.0

#: Valid values of the ``mode`` argument / ``FlowConfig.cts_mode``.
CTS_MODES = ("single", "dual")


@dataclass(frozen=True)
class ClockTreeReport:
    """Summary of the synthesized tree, with per-side breakdowns."""

    sinks: int
    buffers: int
    levels: int
    root_buffer: str
    #: ``"single"`` (all-frontside) or ``"dual"`` (partitioned).
    mode: str = "single"
    #: Buffers whose output net routes on each side.
    front_buffers: int = 0
    back_buffers: int = 0
    #: Estimated (star-model) clock wirelength per side, nm.
    front_wirelength_nm: float = 0.0
    back_wirelength_nm: float = 0.0
    #: Estimated global skew and insertion-delay extremes, ps.
    skew_est_ps: float = 0.0
    max_insertion_ps: float = 0.0
    min_insertion_ps: float = 0.0
    #: Estimated insertion delay per sink, ``(instance, pin) -> ps``.
    sink_insertion_ps: dict = field(default_factory=dict)
    #: Side assignment per tree net, ``net -> "front" | "back"``.
    #: Routing honors the ``"back"`` entries via decomposition overrides.
    net_sides: dict = field(default_factory=dict)

    @property
    def total_wirelength_nm(self) -> float:
        return self.front_wirelength_nm + self.back_wirelength_nm

    @property
    def back_fraction(self) -> float:
        """Share of the estimated clock wirelength on backside metal."""
        total = self.total_wirelength_nm
        return self.back_wirelength_nm / total if total > 0 else 0.0


def emit_cts_gauges(tracer, report: ClockTreeReport) -> None:
    """Publish the ``cts.*`` gauges (docs/observability.md) for one tree.

    Called by the flow's ``cts`` stage restore, which runs whether the
    stage executed or was replayed from the stage store, so traces
    always carry the tree telemetry.
    """
    tracer.gauge("cts.sinks", report.sinks)
    tracer.gauge("cts.buffers", report.buffers)
    tracer.gauge("cts.levels", report.levels)
    tracer.gauge("cts.front_buffers", report.front_buffers)
    tracer.gauge("cts.back_buffers", report.back_buffers)
    tracer.gauge("cts.front_wirelength_nm", report.front_wirelength_nm)
    tracer.gauge("cts.back_wirelength_nm", report.back_wirelength_nm)
    tracer.gauge("cts.back_fraction", report.back_fraction)
    tracer.gauge("cts.skew_est_ps", report.skew_est_ps)


def clock_layer_rc(tech: TechNode, side: Side) -> tuple[float, float]:
    """(resistance kOhm/um, capacitance fF/um) of the clock layer on
    ``side`` — the fixed :data:`CLOCK_ESTIMATION_LEVEL` metal."""
    layer = tech.stackup.metal(side, CLOCK_ESTIMATION_LEVEL)
    return layer.resistance_kohm_per_um, layer.capacitance_ff_per_um


def clock_wire_delay_ps(tech: TechNode, side: Side, length_nm: float,
                        sink_cap_ff: float = 0.0) -> float:
    """First-order delay of one clock tree edge on ``side``, ps.

    Distributed-wire Elmore (``0.5 R C L^2``) plus the wire resistance
    driving the sink pin capacitance.
    """
    r, c = clock_layer_rc(tech, side)
    length_um = length_nm / 1000.0
    return 0.5 * r * c * length_um * length_um + r * length_um * sink_cap_ff


def _source_point(netlist: Netlist, placement: Placement,
                  net_name: str) -> Point | None:
    """Where a clock (sub)net is driven from: buffer location or IO pad."""
    driver = netlist.nets[net_name].driver
    if driver is not None:
        return placement.locations[driver[0]]
    return placement.io_pins.get(net_name)


def _edge_length_nm(src: Point | None, dst: Point) -> float:
    if src is None:
        return 0.0
    return abs(src.x_nm - dst.x_nm) + abs(src.y_nm - dst.y_nm)


def _star_length_nm(netlist: Netlist, placement: Placement,
                    buf_name: str) -> float:
    """Star wirelength from a buffer to its output net's sinks, nm.

    Added left to right: builtins.sum over floats is a compensated sum
    on Python >= 3.12, which would make the tree depend on the
    interpreter.
    """
    src = placement.locations[buf_name]
    out_net = netlist.instances[buf_name].connections["Z"]
    length = 0.0
    for inst, _pin in netlist.nets[out_net].sinks:
        length += _edge_length_nm(src, placement.locations[inst])
    return length


def estimate_insertion_delays(netlist: Netlist, library: Library,
                              placement: Placement, clock_net: str = "clk",
                              net_sides: dict | None = None
                              ) -> dict[tuple[str, str], float]:
    """Estimated insertion delay to every sequential clock sink, ps.

    Walks the buffered tree from ``clock_net`` down, accumulating
    :data:`BUFFER_DELAY_PS` per buffer stage and
    :func:`clock_wire_delay_ps` per tree edge, pricing each net on the
    side ``net_sides`` assigns it (frontside by default).  This is the
    model the dual-sided partitioner optimizes and the report's
    ``skew_est_ps`` is derived from; signoff skew still comes from STA
    on the extracted parasitics.
    """
    tech = library.tech
    sides = net_sides or {}
    arrivals: dict[tuple[str, str], float] = {}
    frontier: list[tuple[str, float]] = [(clock_net, 0.0)]
    while frontier:
        net_name, at = frontier.pop()
        side = Side.BACK if sides.get(net_name) == "back" else Side.FRONT
        src = _source_point(netlist, placement, net_name)
        for inst_name, pin_name in netlist.nets[net_name].sinks:
            inst = netlist.instances[inst_name]
            master = library[inst.master]
            length = _edge_length_nm(src, placement.locations[inst_name])
            t = at + clock_wire_delay_ps(tech, side, length,
                                         master.pin(pin_name).cap_ff)
            if master.is_sequential:
                arrivals[(inst_name, pin_name)] = t
            else:
                out_net = inst.connections[master.output.name]
                frontier.append((out_net, t + BUFFER_DELAY_PS))
    return arrivals


def _tree_nets(netlist: Netlist, placement: Placement, clock_net: str,
               buffers: dict[str, int]) -> list[tuple[str, int, float]]:
    """Tree nets as (net, depth of driving buffer, star wirelength nm).

    Depth 1 is the root buffer's output; ``clock_net`` itself (the
    primary-input stub into the root buffer) is not listed — it always
    stays frontside.
    """
    rows: list[tuple[str, int, float]] = []
    for buf_name, depth in buffers.items():
        rows.append((netlist.instances[buf_name].connections["Z"], depth,
                     _star_length_nm(netlist, placement, buf_name)))
    return rows


def _partition_sides(netlist: Netlist, library: Library,
                     placement: Placement, clock_net: str,
                     buffers: dict[str, int], levels: int,
                     back_fraction: float) -> dict[str, str]:
    """Choose a front/back assignment for every tree net.

    Candidates assign the top ``k`` levels (the trunk, whose wires are
    the longest and benefit most from the wide backside metal) to BM*
    for ``k = 0 .. levels`` and are scored by the weighted-sum cost
    described in the module docstring.  Deterministic: ties keep the
    smallest ``k``.
    """
    rows = _tree_nets(netlist, placement, clock_net, buffers)
    total_len = 0.0
    for _net, _depth, length in rows:
        total_len += length

    def candidate(k: int) -> dict[str, str]:
        return {net: ("back" if depth <= k else "front")
                for net, depth, _length in rows}

    def objectives(sides: dict[str, str]) -> tuple[float, float, float]:
        delays = estimate_insertion_delays(netlist, library, placement,
                                           clock_net, net_sides=sides)
        spread = (max(delays.values()) - min(delays.values())) \
            if delays else 0.0
        cap = 0.0
        back_len = 0.0
        for net, _depth, length in rows:
            side = Side.BACK if sides[net] == "back" else Side.FRONT
            _r, c = clock_layer_rc(library.tech, side)
            cap += c * length / 1000.0
            if sides[net] == "back":
                back_len += length
        frac = back_len / total_len if total_len > 0 else 0.0
        return spread, cap, frac

    skew0, cap0, _frac0 = objectives(candidate(0))
    skew_ref = max(skew0, 1.0)
    cap_ref = max(cap0, 1e-9)

    best_sides: dict[str, str] = candidate(0)
    best_cost = float("inf")
    for k in range(levels + 1):
        sides = candidate(k)
        skew, cap, frac = objectives(sides)
        cost = (SKEW_WEIGHT * skew / skew_ref
                + POWER_WEIGHT * cap / cap_ref
                + FRACTION_WEIGHT * abs(frac - back_fraction))
        if cost < best_cost:
            best_cost = cost
            best_sides = sides
    return best_sides


def synthesize_clock_tree(netlist: Netlist, library: Library,
                          placement: Placement, clock_net: str = "clk",
                          max_fanout: int = 16, mode: str = "single",
                          back_fraction: float = 0.5) -> ClockTreeReport:
    """Build the buffered clock tree in place.

    Modifies ``netlist`` (buffer instances, new clock subnets) and
    ``placement`` (buffer locations at cluster centroids; the flow
    re-legalizes afterwards).  ``mode="dual"`` additionally partitions
    the tree nets between front and back metal (see the module
    docstring); the assignment is returned in the report's
    ``net_sides`` for routing to honor.  Returns a summary report.
    """
    if mode not in CTS_MODES:
        raise ValueError(f"unknown CTS mode {mode!r} (expected one of "
                         f"{CTS_MODES})")
    if clock_net not in netlist.nets:
        raise KeyError(f"no clock net {clock_net!r}")
    root_net = netlist.nets[clock_net]
    sinks = list(root_net.sinks)
    if not sinks:
        raise ValueError(f"clock net {clock_net!r} has no sinks")

    counter = {"buf": 0, "net": 0, "levels": 0}
    #: Buffer name -> depth below the root (root buffer = 1), filled in
    #: bottom-up during construction and rebased afterwards.
    subtree_height: dict[str, int] = {}

    def fresh_buffer() -> str:
        counter["buf"] += 1
        return f"ctsbuf_{counter['buf']}"

    def fresh_net() -> str:
        counter["net"] += 1
        return f"ctsnet_{counter['net']}"

    def centroid(points: list[Point]) -> Point:
        x = y = 0.0
        for p in points:
            x += p.x_nm
            y += p.y_nm
        return Point(x / len(points), y / len(points))

    def build(cluster: list[tuple[str, str]]) -> tuple[str, Point, int]:
        """Insert buffers driving ``cluster``; returns (buffer, loc, depth)."""
        points = [placement.locations[inst] for inst, _pin in cluster]
        if len(cluster) <= max_fanout:
            buf_name = fresh_buffer()
            out_net = fresh_net()
            loc = centroid(points)
            netlist.add_instance(buf_name, LEAF_BUFFER,
                                 {"A": fresh_net(), "Z": out_net})
            for inst, pin in cluster:
                netlist.instances[inst].connections[pin] = out_net
            placement.locations[buf_name] = loc
            subtree_height[buf_name] = 1
            return buf_name, loc, 1

        # Split along the wider dimension at the median.
        xs = [p.x_nm for p in points]
        ys = [p.y_nm for p in points]
        horizontal = (max(xs) - min(xs)) >= (max(ys) - min(ys))
        key = (lambda item: placement.locations[item[0]].x_nm) if horizontal \
            else (lambda item: placement.locations[item[0]].y_nm)
        ordered = sorted(cluster, key=key)
        half = len(ordered) // 2
        children = [build(ordered[:half]), build(ordered[half:])]

        buf_name = fresh_buffer()
        out_net = fresh_net()
        loc = centroid([c[1] for c in children])
        netlist.add_instance(buf_name, TRUNK_BUFFER,
                             {"A": fresh_net(), "Z": out_net})
        for child_buf, _loc, _depth in children:
            netlist.instances[child_buf].connections["A"] = out_net
        placement.locations[buf_name] = loc
        depth = 1 + max(c[2] for c in children)
        subtree_height[buf_name] = depth
        return buf_name, loc, depth

    root_buf, _root_loc, depth = build(sinks)
    counter["levels"] = depth
    netlist.instances[root_buf].connections["A"] = clock_net

    # Rebind so drivers/sinks reflect the rewired tree.
    netlist.bind(library)

    # Depth from the root: the root buffer carries the full subtree
    # height, so depth = levels - height + 1.
    buffer_depths = {name: depth - height + 1
                     for name, height in subtree_height.items()}

    if mode == "dual":
        net_sides = _partition_sides(netlist, library, placement, clock_net,
                                     buffer_depths, depth, back_fraction)
    else:
        net_sides = {netlist.instances[name].connections["Z"]: "front"
                     for name in buffer_depths}

    front_wl = back_wl = 0.0
    front_bufs = back_bufs = 0
    for buf_name in buffer_depths:
        out_net = netlist.instances[buf_name].connections["Z"]
        length = _star_length_nm(netlist, placement, buf_name)
        if net_sides.get(out_net) == "back":
            back_wl += length
            back_bufs += 1
        else:
            front_wl += length
            front_bufs += 1

    delays = estimate_insertion_delays(netlist, library, placement,
                                       clock_net, net_sides=net_sides)
    max_ins = max(delays.values()) if delays else 0.0
    min_ins = min(delays.values()) if delays else 0.0

    return ClockTreeReport(
        sinks=len(sinks),
        buffers=counter["buf"],
        levels=counter["levels"],
        root_buffer=root_buf,
        mode=mode,
        front_buffers=front_bufs,
        back_buffers=back_bufs,
        front_wirelength_nm=front_wl,
        back_wirelength_nm=back_wl,
        skew_est_ps=max_ins - min_ins,
        max_insertion_ps=max_ins,
        min_insertion_ps=min_ins,
        sink_insertion_ps=delays,
        net_sides=net_sides,
    )
