"""Static IR-drop analysis of the backside power delivery network.

Section III.B: the powerplan must "ensure the power integrity and the
even distribution of power supply across both sides of the chip".
This module checks that: the BSPDN is modeled as vertical stripes
feeding horizontal M0 rails (one per row), each rail a resistive line
tapped at every stripe crossing; cell currents (from leakage plus
dynamic power at an operating point) load the rails, and the worst
voltage drop is solved row by row.

For the FFET's frontside VSS rails the current additionally crosses the
Power Tap Cell resistance; for the CFET's BPR it crosses the nTSV.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cells import VDD_V, Library
from ..netlist import Netlist
from .placement import Placement
from .powerplan import PowerPlan

#: Resistance of one M0 power-rail segment per micron, kOhm.
RAIL_RES_KOHM_PER_UM = 0.45
#: Resistance of a PDN stripe per micron (thick backside metal), kOhm.
STRIPE_RES_KOHM_PER_UM = 0.010
#: Power Tap Cell / nTSV series resistance, kOhm.
TAP_RES_KOHM = 0.050


@dataclass(frozen=True)
class IrDropReport:
    """Worst-case static IR drop of one supply net."""

    net: str
    worst_drop_mv: float
    mean_drop_mv: float
    worst_row: int
    total_current_ma: float

    @property
    def worst_drop_fraction(self) -> float:
        return self.worst_drop_mv / (VDD_V * 1000.0)

    @property
    def ok(self) -> bool:
        """Common sign-off bound: below 5 % of the supply."""
        return self.worst_drop_fraction < 0.05


def analyze_ir_drop(netlist: Netlist, library: Library,
                    placement: Placement, powerplan: PowerPlan,
                    total_power_mw: float, net: str = "VSS") -> IrDropReport:
    """Solve the per-row rail drops for one supply net.

    Cell currents are apportioned from ``total_power_mw`` by cell area
    (a standard static-IR approximation).  Each row's rail is a
    resistive line with taps at the stripe positions; between two taps
    the worst point is mid-span, solved with the standard distributed-
    load formula.
    """
    die = placement.die
    tap_xs = sorted({
        (tap.site + tap.width_sites / 2.0) * die.site_width_nm
        for tap in powerplan.tap_cells
    })
    if not tap_xs:
        # Backside VDD rails tap the stripes directly below them.
        tap_xs = sorted({s.x_nm for s in powerplan.stripes if s.net == net})
    if not tap_xs:
        raise ValueError(f"powerplan has no taps or stripes for {net}")

    total_area = netlist.total_cell_area_nm2(library)
    total_current_ma = total_power_mw / VDD_V  # I = P / V

    # Current per row, by placed area.
    row_current = np.zeros(die.rows)
    for name, inst in netlist.instances.items():
        area = library[inst.master].area_nm2(library.tech)
        row = die.row_of(placement.locations[name].y_nm)
        row_current[row] += total_current_ma * area / total_area

    worst = 0.0
    worst_row = 0
    drops = []
    for row in range(die.rows):
        current = row_current[row]
        if current <= 0:
            drops.append(0.0)
            continue
        # Uniform current density along the row; each span between taps
        # sees its share.  Worst point of a span fed from both ends with
        # uniform load: I_span * R_span / 8; end spans (fed one side):
        # I_span * R_span / 2.
        row_drop = 0.0
        boundaries = [0.0] + tap_xs + [die.width_nm]
        for i, (x0, x1) in enumerate(zip(boundaries, boundaries[1:])):
            span_nm = x1 - x0
            if span_nm <= 0:
                continue
            span_current = current * span_nm / die.width_nm
            span_res = RAIL_RES_KOHM_PER_UM * span_nm / 1000.0
            both_ends = 0 < i < len(boundaries) - 2
            factor = 1.0 / 8.0 if both_ends else 1.0 / 2.0
            drop = span_current * span_res * factor * 1000.0  # mA*kOhm=V -> mV
            row_drop = max(row_drop, drop)
        # Series tap and stripe contribution (stripe feeds die.rows rows;
        # the row current splits over the row's taps).
        tap_drop = current / max(len(tap_xs), 1) * TAP_RES_KOHM * 1000.0
        stripe_res = STRIPE_RES_KOHM_PER_UM * die.height_nm / 1000.0 / 2.0
        stripe_drop = (total_current_ma / max(len(tap_xs), 1)) * \
            stripe_res * 1000.0 / die.rows
        total_drop = row_drop + tap_drop + stripe_drop
        drops.append(total_drop)
        if total_drop > worst:
            worst = total_drop
            worst_row = row

    return IrDropReport(
        net=net,
        worst_drop_mv=worst,
        mean_drop_mv=float(np.mean(drops)),
        worst_row=worst_row,
        total_current_ma=total_current_ma,
    )
