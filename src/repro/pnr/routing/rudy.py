"""RUDY: pre-route congestion estimation from a placement.

Rectangular Uniform wire DensitY (Spindler & Johannes): each net
spreads its expected wirelength uniformly over its bounding box, and
the per-gcell sum predicts routing demand before any routing runs.
Used for early feedback (e.g. to compare pin-density DoEs cheaply) and
validated in the tests against the real router's usage map.
"""

from __future__ import annotations

import numpy as np

from ...netlist import Netlist
from ..geometry import Die
from ..placement import Placement


def rudy_map(netlist: Netlist, placement: Placement, die: Die,
             gcell_nm: float = 480.0) -> np.ndarray:
    """(rows, cols) array of estimated routing demand per gcell."""
    cols = max(1, int(np.ceil(die.width_nm / gcell_nm)))
    rows = max(1, int(np.ceil(die.height_nm / gcell_nm)))
    demand = np.zeros((rows, cols))

    for net_name in netlist.nets:
        points = placement.net_points(netlist, net_name)
        if len(points) < 2:
            continue
        x0 = min(p.x_nm for p in points)
        x1 = max(p.x_nm for p in points)
        y0 = min(p.y_nm for p in points)
        y1 = max(p.y_nm for p in points)
        hpwl = (x1 - x0) + (y1 - y0)
        if hpwl == 0:
            continue
        width = max(x1 - x0, gcell_nm)
        height = max(y1 - y0, gcell_nm)
        density = hpwl / (width * height)  # wire per unit area

        c0 = int(x0 // gcell_nm)
        c1 = min(int(x1 // gcell_nm), cols - 1)
        r0 = int(y0 // gcell_nm)
        r1 = min(int(y1 // gcell_nm), rows - 1)
        demand[r0:r1 + 1, c0:c1 + 1] += density * gcell_nm
    return demand


def peak_congestion_estimate(netlist: Netlist, placement: Placement,
                             die: Die, capacity_tracks: float,
                             gcell_nm: float = 480.0) -> float:
    """Worst RUDY demand over capacity — a quick routability screen."""
    demand = rudy_map(netlist, placement, die, gcell_nm)
    if demand.size == 0 or capacity_tracks <= 0:
        return 0.0
    return float(demand.max() / capacity_tracks)
