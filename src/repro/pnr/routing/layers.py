"""Layer assignment: map routed nets onto metal-layer tiers.

Global routing happens on a per-direction capacity abstraction; this
pass assigns every net to a (horizontal, vertical) layer pair — short
nets to the low, fine-pitch tiers, long nets to the tall, fast tiers —
filling each tier proportionally to its track capacity, the way
commercial layer assignment balances congestion.
"""

from __future__ import annotations

from dataclasses import dataclass

from ...tech import Layer
from .router import RoutingResult

#: Fraction of the lowest tier's tracks available to inter-cell routes
#: (the rest serves pin access and intra-gcell stubs).
LOW_TIER_ASSIGNMENT_SHARE = 0.2


@dataclass(frozen=True)
class Tier:
    """A consecutive pair of routing layers (one per direction)."""

    index: int
    horizontal: Layer
    vertical: Layer
    #: Vias needed to climb from the cell pin (M0) to this tier.
    via_stack: int


@dataclass
class LayerAssignment:
    """Per-net tier assignment for one routing side."""

    tiers: list[Tier]
    net_tier: dict[str, Tier]

    def tier_of(self, net_name: str) -> Tier:
        return self.net_tier[net_name]


def build_tiers(layers: list[Layer]) -> list[Tier]:
    """Pair up routable layers into (H, V) tiers, bottom-up."""
    if not layers:
        raise ValueError("no routing layers to tier")
    tiers = []
    i = 0
    while i < len(layers):
        pair = layers[i:i + 2]
        hs = [l for l in pair if l.direction.value == "H"]
        vs = [l for l in pair if l.direction.value == "V"]
        horizontal = hs[0] if hs else pair[0]
        vertical = vs[0] if vs else pair[-1]
        tiers.append(
            Tier(index=len(tiers), horizontal=horizontal, vertical=vertical,
                 via_stack=i + 1)
        )
        i += 2
    return tiers


def assign_layers(result: RoutingResult) -> LayerAssignment:
    """Distribute nets over tiers by length, respecting capacity shares."""
    tiers = build_tiers(result.grid.layers)
    gcell_nm = result.grid.gcell_nm

    # Capacity share per tier (tracks per gcell in both directions).
    # The lowest tier (M1/M2) is mostly consumed by pin escapes and
    # short stubs, so only a fraction of it is available to inter-cell
    # routes — without this, long nets get forced onto the most
    # resistive metals, which no real flow would do.
    def tier_tracks(tier: Tier) -> float:
        tracks = gcell_nm / tier.horizontal.pitch_nm
        if tier.vertical is not tier.horizontal:
            tracks += gcell_nm / tier.vertical.pitch_nm
        if tier.index == 0:
            tracks *= LOW_TIER_ASSIGNMENT_SHARE
        return tracks

    shares = [tier_tracks(t) for t in tiers]
    # Added left to right: builtins.sum over floats is a compensated sum
    # on Python >= 3.12, which would make the assignment depend on the
    # interpreter.
    total_share = 0.0
    for share in shares:
        total_share += share

    routes = sorted(result.routes.values(),
                    key=lambda r: (r.wirelength_gcells, r.name))
    total_wl = sum(r.wirelength_gcells for r in routes) or 1

    net_tier: dict[str, Tier] = {}
    tier_idx = 0
    filled = 0.0
    budget = shares[0] / total_share * total_wl
    for route in routes:
        while filled >= budget and tier_idx < len(tiers) - 1:
            tier_idx += 1
            budget += shares[tier_idx] / total_share * total_wl
        net_tier[route.name] = tiers[tier_idx]
        filled += route.wirelength_gcells
    return LayerAssignment(tiers=tiers, net_tier=net_tier)
