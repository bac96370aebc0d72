"""Netlist statistics: the numbers a synthesis report prints."""

from __future__ import annotations

from dataclasses import dataclass

from ..cells import Library
from .netlist import Netlist


@dataclass(frozen=True)
class NetlistStats:
    """Summary statistics of one gate-level netlist."""

    instances: int
    nets: int
    flops: int
    combinational: int
    cell_area_um2: float
    cell_histogram: dict[str, int]
    logic_depth: int
    max_fanout: int
    mean_fanout: float
    primary_inputs: int
    primary_outputs: int

    def format(self) -> str:
        lines = [
            f"instances: {self.instances} "
            f"({self.flops} flops, {self.combinational} combinational)",
            f"nets: {self.nets}  PIs: {self.primary_inputs}  "
            f"POs: {self.primary_outputs}",
            f"cell area: {self.cell_area_um2:.2f} um2",
            f"logic depth: {self.logic_depth}  "
            f"fanout max/mean: {self.max_fanout}/{self.mean_fanout:.1f}",
            "cell mix:",
        ]
        for master, count in sorted(self.cell_histogram.items(),
                                    key=lambda kv: -kv[1]):
            lines.append(f"  {master:<12}{count:>6}")
        return "\n".join(lines)


def netlist_stats(netlist: Netlist, library: Library) -> NetlistStats:
    """Compute :class:`NetlistStats` (requires a bound netlist)."""
    depth: dict[str, int] = {}
    max_depth = 0
    for inst in netlist.topological_order(library):
        master = library[inst.master]
        level = 0
        for pin in master.input_pins:
            net = netlist.nets[inst.connections[pin.name]]
            if net.driver is not None:
                level = max(level, depth.get(net.driver[0], 0))
        depth[inst.name] = level + 1
        max_depth = max(max_depth, level + 1)

    fanouts = [net.fanout for net in netlist.nets.values() if net.fanout]
    flops = netlist.sequential_instances(library)
    return NetlistStats(
        instances=len(netlist.instances),
        nets=len(netlist.nets),
        flops=len(flops),
        combinational=len(netlist.instances) - len(flops),
        cell_area_um2=netlist.total_cell_area_nm2(library) / 1e6,
        cell_histogram=netlist.cell_counts(),
        logic_depth=max_depth,
        max_fanout=max(fanouts) if fanouts else 0,
        mean_fanout=sum(fanouts) / len(fanouts) if fanouts else 0.0,
        primary_inputs=len(netlist.primary_inputs),
        primary_outputs=len(netlist.primary_outputs),
    )
