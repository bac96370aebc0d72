"""GCell routing grid with per-layer, per-direction capacities.

Capacity comes straight from the Table II pitches: a layer with pitch
``p`` contributes ``gcell_size / p`` tracks per gcell in its preferred
direction.  Two deratings apply:

* the PDN occupies a fraction of the stripe-hosting layers
  (:mod:`repro.pnr.powerplan`), and
* **pin density**: every physical pin shape in a gcell blocks part of
  the lowest routing layers for through-traffic.  This is the mechanism
  behind the paper's routability story — the FFET's smaller cells pack
  more pins per area (bad for single-sided routing, Fig. 8c), and
  dual-sided pins split that density across the two wafer sides.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ...tech import Layer, Side, TechNode
from ..geometry import Die
from ..powerplan import PowerPlan

#: Fraction of raw tracks usable by global routing (detour/blockage slack).
GLOBAL_ROUTING_EFFICIENCY = 1.25

#: Routing tracks blocked per physical pin shape in a gcell.
PIN_BLOCK_TRACKS = 0.20

#: Default gcell edge length, in M2 tracks (30 nm each).
DEFAULT_GCELL_TRACKS = 16

#: Pin-access limit: pin shapes per um^2 of one wafer side that the
#: M0/M1 levels can still connect cleanly, averaged over the core.
#: Densities above this produce pin-access DRVs in proportion to the
#: excess pin count — the paper's "very high pin density, thus worse
#: routability" mechanism that caps the FFET FM12 at 76 % utilization
#: while the dual-sided FFET (pins split over two wafer sides) and the
#: CFET (larger cells) stay below the limit.
PIN_ACCESS_CAP_PER_UM2 = 79.5


@dataclass
class RoutingGrid:
    """One wafer side's global-routing grid."""

    side: Side
    cols: int
    rows: int
    gcell_nm: float
    layers: list[Layer]
    #: Horizontal-edge capacity, shape (rows, cols - 1).
    cap_h: np.ndarray = field(default=None)  # type: ignore[assignment]
    #: Vertical-edge capacity, shape (rows - 1, cols).
    cap_v: np.ndarray = field(default=None)  # type: ignore[assignment]
    #: GCells whose pin density exceeds the pin-access limit.
    pin_access_drvs: int = 0

    def __post_init__(self) -> None:
        if self.cap_h is None:
            self.cap_h = np.zeros((self.rows, max(self.cols - 1, 0)))
        if self.cap_v is None:
            self.cap_v = np.zeros((max(self.rows - 1, 0), self.cols))

    # -- coordinate mapping -----------------------------------------------
    def gcell_of(self, x_nm: float, y_nm: float) -> tuple[int, int]:
        col = min(max(int(x_nm // self.gcell_nm), 0), self.cols - 1)
        row = min(max(int(y_nm // self.gcell_nm), 0), self.rows - 1)
        return col, row


def build_grid(tech: TechNode, die: Die, side: Side, powerplan: PowerPlan,
               pin_counts: np.ndarray | None = None,
               gcell_tracks: int = DEFAULT_GCELL_TRACKS) -> RoutingGrid:
    """Construct the routing grid for one wafer side.

    ``pin_counts`` is an optional (rows, cols) array of physical pin
    shapes per gcell on this side; it derates the two lowest layers.
    """
    layers = tech.routing_layers(side)
    if not layers:
        raise ValueError(f"{tech.name} has no routing layers on {side}")
    gcell_nm = gcell_tracks * tech.rules.track_pitch_nm
    cols = max(1, int(np.ceil(die.width_nm / gcell_nm)))
    rows = max(1, int(np.ceil(die.height_nm / gcell_nm)))
    grid = RoutingGrid(side=side, cols=cols, rows=rows,
                       gcell_nm=gcell_nm, layers=layers)

    def layer_tracks(layer: Layer) -> float:
        raw = gcell_nm / layer.pitch_nm
        return raw * powerplan.capacity_factor(layer.name) * GLOBAL_ROUTING_EFFICIENCY

    # Track totals per direction, and on the two lowest layers (the ones
    # pins eat into), added left to right: builtins.sum over floats is a
    # compensated sum on Python >= 3.12, which would make the grid
    # depend on the interpreter.
    h_total = v_total = h_low = v_low = 0.0
    for i, layer in enumerate(layers):
        tracks = layer_tracks(layer)
        if layer.direction.value == "H":
            h_total += tracks
            if i < 2:
                h_low += tracks
        elif layer.direction.value == "V":
            v_total += tracks
            if i < 2:
                v_low += tracks

    node_h = np.full((rows, cols), h_total)
    node_v = np.full((rows, cols), v_total)
    if pin_counts is not None:
        if pin_counts.shape != (rows, cols):
            raise ValueError(
                f"pin_counts shape {pin_counts.shape} != grid ({rows}, {cols})"
            )
        core_area_um2 = die.width_nm * die.height_nm / 1e6
        mean_density = pin_counts.sum() / core_area_um2
        excess = max(0.0, mean_density - PIN_ACCESS_CAP_PER_UM2)
        grid.pin_access_drvs = int(round(excess * core_area_um2))
        blocked = pin_counts * PIN_BLOCK_TRACKS
        low = h_low + v_low
        if low > 0:
            h_share = h_low / low
            v_share = v_low / low
            node_h -= np.minimum(blocked * h_share, h_low)
            node_v -= np.minimum(blocked * v_share, v_low)
    macros = getattr(die, "macros", ())
    if macros:
        layer_by_name = {l.name: l for l in layers}
        for macro in macros:
            for layer_name, rect in macro.obstructions:
                layer = layer_by_name.get(layer_name)
                if layer is None:
                    continue  # obstruction lives on the other wafer side
                tracks = layer_tracks(layer)
                target = node_h if layer.direction.value == "H" else node_v
                c0 = min(max(int(rect.x0_nm // gcell_nm), 0), cols - 1)
                c1 = min(max(int(np.ceil(rect.x1_nm / gcell_nm)), c0 + 1), cols)
                r0 = min(max(int(rect.y0_nm // gcell_nm), 0), rows - 1)
                r1 = min(max(int(np.ceil(rect.y1_nm / gcell_nm)), r0 + 1), rows)
                for r in range(r0, r1):
                    y_lo, y_hi = r * gcell_nm, (r + 1) * gcell_nm
                    fy = (min(rect.y1_nm, y_hi) - max(rect.y0_nm, y_lo)) / gcell_nm
                    if fy <= 0:
                        continue
                    for c in range(c0, c1):
                        x_lo, x_hi = c * gcell_nm, (c + 1) * gcell_nm
                        fx = ((min(rect.x1_nm, x_hi) - max(rect.x0_nm, x_lo))
                              / gcell_nm)
                        if fx > 0:
                            target[r, c] -= tracks * fx * fy
    node_h = np.maximum(node_h, 0.5)
    node_v = np.maximum(node_v, 0.5)

    if cols > 1:
        grid.cap_h = np.minimum(node_h[:, :-1], node_h[:, 1:])
    if rows > 1:
        grid.cap_v = np.minimum(node_v[:-1, :], node_v[1:, :])
    return grid


def pin_count_map(instances_pins: list[tuple[float, float]], die: Die,
                  gcell_tracks: int, track_pitch_nm: float) -> np.ndarray:
    """Histogram pin locations into gcells; returns (rows, cols) counts."""
    gcell_nm = gcell_tracks * track_pitch_nm
    cols = max(1, int(np.ceil(die.width_nm / gcell_nm)))
    rows = max(1, int(np.ceil(die.height_nm / gcell_nm)))
    counts = np.zeros((rows, cols))
    for x_nm, y_nm in instances_pins:
        col = min(max(int(x_nm // gcell_nm), 0), cols - 1)
        row = min(max(int(y_nm // gcell_nm), 0), rows - 1)
        counts[row, col] += 1
    return counts
