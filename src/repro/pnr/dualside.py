"""Dual-sided signal routing — the paper's Algorithm 1.

Every FFET output pin is dual-sided (Drain Merge), so a net's source
can feed either wafer side.  Each net is decomposed into a frontside
net (the source plus all sinks whose input pins sit on the frontside)
and a backside net (the source plus the backside sinks); the two sets
are routed independently on their own grids, producing two DEFs.

Bridging cells are supported but not needed for FFET (Section III.A):
when a technology's output pins cannot reach a sink's side (CFET with a
hypothetical backside sink), a buffer is inserted next to the driver to
carry the signal across — at an area and delay cost, which is exactly
why the paper's native dual-sided pins win.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..cells import Library
from ..core.errors import DecompositionError
from ..netlist import Netlist
from ..tech import Side
from .placement import Placement, pin_point
from .routing.grid import RoutingGrid
from .routing.router import NetSpec


@dataclass
class NetDecomposition:
    """Result of Algorithm 1's net-splitting step."""

    #: Routing requests per side.
    specs: dict[Side, list[NetSpec]] = field(default_factory=dict)
    #: (net, side) -> sink pins routed on that side.
    side_sinks: dict[tuple[str, Side], list[tuple[str, str]]] = \
        field(default_factory=dict)
    #: Names of inserted bridging buffer instances (normally empty).
    bridges: list[str] = field(default_factory=list)

    def sinks_on(self, net: str, side: Side) -> list[tuple[str, str]]:
        return self.side_sinks.get((net, side), [])


def _sink_side(library: Library, netlist: Netlist,
               inst_name: str, pin_name: str) -> Side:
    """The wafer side a sink pin must be reached on."""
    pin = library[netlist.instances[inst_name].master].pin(pin_name)
    if pin.is_dual_sided:
        # Dual-sided input pins (Gate Merge ablation): route frontside.
        return Side.FRONT
    return pin.side


def decompose_nets(netlist: Netlist, library: Library, placement: Placement,
                   grids: dict[Side, RoutingGrid],
                   allow_bridging: bool = False,
                   side_overrides: dict[str, Side] | None = None
                   ) -> NetDecomposition:
    """Split nets by sink pin side and build per-side routing requests.

    Follows Algorithm 1: for every net, initialize a front and a back
    net with the source, assign each sink by its pin's side, and emit
    the non-trivial subnets for independent routing.  Raises when a
    sink lies on an unroutable side and bridging is disabled.

    ``side_overrides`` forces whole nets onto one side regardless of
    their sink pins' declared sides — how dual-sided CTS steers clock
    subtrees onto backside metal (FFET sinks are reachable from either
    side through the dual-sided source and clock TSVs).  Overridden
    nets still pass the decomposition guard: every sink is covered,
    just on the hinted side.

    Bridging mutates the netlist, so decomposition restarts until it
    converges (bridged nets then route natively).
    """
    all_bridges: list[str] = []
    while True:
        decomp = _decompose_once(netlist, library, placement, grids,
                                 allow_bridging, len(all_bridges),
                                 side_overrides or {})
        if not decomp.bridges:
            decomp.bridges = all_bridges
            return decomp
        all_bridges.extend(decomp.bridges)


def _decompose_once(netlist: Netlist, library: Library, placement: Placement,
                    grids: dict[Side, RoutingGrid],
                    allow_bridging: bool,
                    bridge_counter: int,
                    side_overrides: dict[str, Side]) -> NetDecomposition:
    tech = library.tech
    available = set(grids)
    decomp = NetDecomposition(specs={side: [] for side in available})
    for net_name in sorted(netlist.nets):
        net = netlist.nets[net_name]
        sinks_by_side: dict[Side, list[tuple[str, str]]] = {
            Side.FRONT: [], Side.BACK: [],
        }
        forced = side_overrides.get(net_name)
        for inst_name, pin_name in net.sinks:
            side = forced if forced is not None else \
                _sink_side(library, netlist, inst_name, pin_name)
            sinks_by_side[side].append((inst_name, pin_name))

        # Which sides can the source feed?  Dual-sided output pins (or
        # primary inputs entering through IO vias) reach both sides in
        # FFET; CFET sources are frontside-only.
        if net.driver is None:
            source_sides = available if tech.dual_sided_pins else {Side.FRONT}
            source_point = placement.io_pins.get(net_name)
        else:
            drv_inst, drv_pin = net.driver
            drv_master = library[netlist.instances[drv_inst].master]
            source_sides = set(drv_master.pin(drv_pin).sides)
            source_point = pin_point(placement, drv_master, drv_inst, drv_pin)

        for side in (Side.FRONT, Side.BACK):
            side_sinks = sinks_by_side[side]
            if not side_sinks and not (side is Side.FRONT and net.is_primary_output):
                continue
            if side not in available:
                raise DecompositionError(
                    f"net {net_name}: sink on {side} but no {side} routing "
                    f"layers in {tech.name}",
                    "routing",
                )
            if side not in source_sides:
                if not allow_bridging:
                    raise DecompositionError(
                        f"net {net_name}: source cannot reach {side} "
                        "(enable bridging or use dual-sided output pins)",
                        "routing",
                    )
                bridge_counter += 1
                decomp.bridges.append(
                    _insert_bridge(netlist, library, placement, net_name,
                                   side, side_sinks, bridge_counter)
                )
                continue

            grid = grids[side]
            terminals = []
            if source_point is not None:
                terminals.append(grid.gcell_of(source_point.x_nm,
                                               source_point.y_nm))
            for inst_name, pin_name in side_sinks:
                master = library[netlist.instances[inst_name].master]
                p = pin_point(placement, master, inst_name, pin_name)
                terminals.append(grid.gcell_of(p.x_nm, p.y_nm))
            if net.is_primary_output and side is Side.FRONT:
                pad = placement.io_pins.get(net_name)
                if pad is not None:
                    terminals.append(grid.gcell_of(pad.x_nm, pad.y_nm))
            decomp.side_sinks[(net_name, side)] = side_sinks
            if len(set(terminals)) < 2:
                # Entire subnet inside one gcell: zero global wire.
                decomp.specs[side].append(
                    NetSpec(net_name, side, terminals or [(0, 0)])
                )
            else:
                decomp.specs[side].append(NetSpec(net_name, side, terminals))
    return decomp


def _insert_bridge(netlist: Netlist, library: Library, placement: Placement,
                   net_name: str, side: Side,
                   side_sinks: list[tuple[str, str]], counter: int) -> str:
    """Insert a bridging buffer carrying ``net_name`` to ``side``.

    The bridge sits at the driver's location; its output feeds the
    stranded sinks through a new net.  The caller must re-bind the
    netlist and re-run decomposition afterwards.
    """
    bridge_name = f"bridge_{counter}"
    bridged_net = f"{net_name}__{side.value}"
    netlist.add_net(bridged_net)
    master = "BRIDGE" if "BRIDGE" in library else "BUFD2"
    netlist.add_instance(bridge_name, master, {"A": net_name, "Z": bridged_net})
    for inst_name, pin_name in side_sinks:
        netlist.instances[inst_name].connections[pin_name] = bridged_net
    net = netlist.nets[net_name]
    source = net.driver
    if source is not None:
        placement.locations[bridge_name] = placement.locations[source[0]]
    else:
        placement.locations[bridge_name] = placement.io_pins[net_name]
    netlist.bind(library)
    return bridge_name
