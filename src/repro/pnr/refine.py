"""Detailed-placement refinement: legal swap/relocate moves on HPWL.

An optional post-legalization pass (commercial flows call it detailed
placement or placement optimization): greedy hill-climbing over two
move types —

* **swap** two same-width cells,
* **relocate** a cell into free whitespace near its nets' centroid,

accepting only moves that reduce total HPWL.  Legality (row/site
alignment, no overlap, tap-cell avoidance) is maintained by
construction: swaps exchange equal-width footprints and relocations
only target free spans.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from ..cells import Library
from ..netlist import Netlist
from .placement import Placement
from .powerplan import PowerPlan


@dataclass(frozen=True)
class RefineReport:
    """Outcome of one refinement run."""

    swaps: int
    relocations: int
    hpwl_before_nm: float
    hpwl_after_nm: float

    @property
    def improvement(self) -> float:
        if self.hpwl_before_nm == 0:
            return 0.0
        return 1.0 - self.hpwl_after_nm / self.hpwl_before_nm


class _IncrementalHpwl:
    """Net bounding boxes with O(degree) recompute on a cell move."""

    def __init__(self, netlist: Netlist, placement: Placement) -> None:
        self.netlist = netlist
        self.placement = placement
        self.cell_nets: dict[str, list[str]] = {}
        for net in netlist.nets.values():
            members = [inst for inst, _pin in net.sinks]
            if net.driver is not None:
                members.append(net.driver[0])
            for inst in members:
                self.cell_nets.setdefault(inst, []).append(net.name)

    def net_hpwl(self, net_name: str) -> float:
        points = self.placement.net_points(self.netlist, net_name)
        if len(points) < 2:
            return 0.0
        xs = [p.x_nm for p in points]
        ys = [p.y_nm for p in points]
        return (max(xs) - min(xs)) + (max(ys) - min(ys))

    def cells_cost(self, cells: list[str]) -> float:
        nets = set()
        for cell in cells:
            nets.update(self.cell_nets.get(cell, ()))
        # Added left to right: builtins.sum over floats is a compensated
        # sum on Python >= 3.12.
        total = 0.0
        for net in nets:
            total += self.net_hpwl(net)
        return total


def refine_placement(netlist: Netlist, library: Library,
                     placement: Placement, powerplan: PowerPlan,
                     iterations: int = 2000, seed: int = 0) -> RefineReport:
    """Greedy HPWL refinement; mutates ``placement`` in place."""
    rng = random.Random(seed)
    die = placement.die
    hpwl = _IncrementalHpwl(netlist, placement)

    macro_names = {m.name for m in getattr(die, "macros", ())}
    widths = {
        name: max(1, math.ceil(library[inst.master].width_cpp))
        for name, inst in netlist.instances.items()
        if name not in macro_names
    }
    names = sorted(widths)
    by_width: dict[int, list[str]] = {}
    for name in names:
        by_width.setdefault(widths[name], []).append(name)

    before = placement.hpwl_nm(netlist)
    swaps = relocations = 0

    for _step in range(iterations):
        width = rng.choice(list(by_width))
        group = by_width[width]
        if len(group) < 2:
            continue
        a, b = rng.sample(group, 2)
        pa, pb = placement.locations[a], placement.locations[b]
        cost_before = hpwl.cells_cost([a, b])
        placement.locations[a], placement.locations[b] = pb, pa
        if hpwl.cells_cost([a, b]) < cost_before - 1e-9:
            swaps += 1
        else:
            placement.locations[a], placement.locations[b] = pa, pb

    after = placement.hpwl_nm(netlist)
    return RefineReport(
        swaps=swaps,
        relocations=relocations,
        hpwl_before_nm=before,
        hpwl_after_nm=after,
    )
