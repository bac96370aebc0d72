"""Floorplanning: target utilization and aspect ratio to a die outline.

With hard macros in the netlist (``repro.macros``), the floorplanner
also fixes each macro's position: macros stack along the left die edge
on the site/row grid, wrapped in a halo keep-out that placement and
legalization must respect.  Die sizing then solves for the *standard-
cell* utilization over the area left after subtracting the macro
keep-outs, so a utilization sweep over a macro design means the same
thing it means for a pure standard-cell one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..cells import Library
from ..netlist import Netlist
from .geometry import Die, MacroSite, Rect


@dataclass(frozen=True)
class FloorplanSpec:
    """User intent for the floorplan stage (Section III.C)."""

    utilization: float = 0.70
    aspect_ratio: float = 1.0  # height / width
    #: Keep-out margin around each hard macro, in CPP.
    macro_halo_cpp: int = 2

    def __post_init__(self) -> None:
        if not 0.05 < self.utilization <= 1.0:
            raise ValueError("utilization must be in (0.05, 1]")
        if self.aspect_ratio <= 0:
            raise ValueError("aspect ratio must be positive")
        if self.macro_halo_cpp < 0:
            raise ValueError("macro halo must be non-negative")


def _macro_instances(netlist: Netlist, library: Library):
    """(instance name, macro master) pairs, in deterministic name order."""
    found = []
    for name in sorted(netlist.instances):
        master = library[netlist.instances[name].master]
        if getattr(master, "is_macro", False):
            found.append((name, master))
    return found


def _macro_areas(sites) -> tuple[float, float]:
    """The macros' footprint and keep-out areas, each added left to
    right from 0.0 (builtins.sum over floats is compensated on
    Python >= 3.12)."""
    macro_area = reserve_area = 0.0
    for site in sites:
        macro_area += site.rect.area_nm2
        reserve_area += site.keepout().area_nm2
    return macro_area, reserve_area


def plan_floor(netlist: Netlist, library: Library,
               spec: FloorplanSpec = FloorplanSpec()) -> Die:
    """Size the core so placed cells hit the target utilization.

    The die snaps to whole rows and sites, so the achieved utilization
    can be marginally below the target; it is never above.  Hard macros
    are placed along the left edge bottom-to-top with halo spacing and
    recorded in ``Die.macros``; the utilization target then applies to
    the standard cells over the non-reserved area.
    """
    tech = library.tech
    cell_area = netlist.total_cell_area_nm2(library)
    if cell_area <= 0:
        raise ValueError("netlist has no placeable area")
    macros = _macro_instances(netlist, library)

    if not macros:
        core_area = cell_area / spec.utilization
        height = math.sqrt(core_area * spec.aspect_ratio)
        width = core_area / height

        rows = max(1, math.ceil(height / tech.cell_height_nm))
        sites = max(1, math.ceil(width / tech.cpp_nm))
        # Snapping shrinks utilization slightly; grow sites until we are
        # at or below the requested utilization.
        while rows * sites * tech.site_area_nm2 < cell_area / spec.utilization:
            sites += 1
        return Die(
            rows=rows,
            sites_per_row=sites,
            site_width_nm=tech.cpp_nm,
            row_height_nm=tech.cell_height_nm,
        )

    cpp = tech.cpp_nm
    row_nm = tech.cell_height_nm
    halo_nm = spec.macro_halo_cpp * cpp
    halo_sites = spec.macro_halo_cpp
    halo_rows = math.ceil(halo_nm / row_nm) if halo_nm > 0 else 0

    # Stack macros on the grid along the left edge, bottom to top.
    sites_list: list[MacroSite] = []
    row_cursor = halo_rows
    min_sites = 1
    for inst_name, master in macros:
        x0 = halo_sites * cpp
        y0 = row_cursor * row_nm
        rect = Rect(x0, y0,
                    x0 + master.width_sites * cpp,
                    y0 + master.height_rows * row_nm)
        obstructions = tuple(
            (layer, Rect(x0 + ox0, y0 + oy0, x0 + ox1, y0 + oy1))
            for layer, ox0, oy0, ox1, oy1 in master.obstructions
        )
        sites_list.append(MacroSite(inst_name, master.name, rect,
                                    halo_nm=halo_nm,
                                    obstructions=obstructions))
        min_sites = max(min_sites, 2 * halo_sites + master.width_sites + 1)
        row_cursor += master.height_rows + max(halo_rows, 1)
    min_rows = row_cursor - max(halo_rows, 1) + halo_rows

    macro_area, reserve_area = _macro_areas(sites_list)
    std_area = max(cell_area - macro_area, 0.0)

    core_area = std_area / spec.utilization + reserve_area
    height = math.sqrt(core_area * spec.aspect_ratio)
    width = core_area / height
    rows = max(min_rows, math.ceil(height / row_nm))
    sites = max(min_sites, math.ceil(width / cpp))
    while (rows * sites * tech.site_area_nm2 - reserve_area
           < std_area / spec.utilization):
        sites += 1
    return Die(
        rows=rows,
        sites_per_row=sites,
        site_width_nm=cpp,
        row_height_nm=row_nm,
        macros=tuple(sites_list),
    )


def achieved_utilization(netlist: Netlist, library: Library, die: Die) -> float:
    """Standard-cell area over the non-reserved core area.

    For macro-free dies this is simply placed-cell area over core area;
    with macros, both the macro footprints (numerator) and their halo
    keep-outs (denominator) are excluded, so the figure stays in (0, 1]
    instead of silently overshooting when macros dominate the die.
    """
    cell_area = netlist.total_cell_area_nm2(library)
    macros = getattr(die, "macros", ())
    if not macros:
        return cell_area / die.area_nm2
    macro_area, reserve_area = _macro_areas(macros)
    available = die.area_nm2 - reserve_area
    if available <= 0:
        raise ValueError("macro keep-outs cover the entire die")
    return (cell_area - macro_area) / available
