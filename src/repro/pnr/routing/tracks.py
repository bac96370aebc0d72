"""Track assignment: refine global routes onto physical routing tracks.

A post-pass over one side's routing result: within every gcell
boundary, the segments crossing it (on their assigned tier layer) are
packed onto the layer's discrete tracks with a greedy interval
scheduler.  The output quantifies what the global router's fractional
capacities abstract away — per-layer track occupancy and the residual
conflicts a detailed router would have to untangle — without feeding
back into the calibrated DRV metric.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ...tech import Layer
from .layers import LayerAssignment
from .router import RoutingResult


@dataclass(frozen=True)
class TrackStats:
    """Per-layer occupancy after track assignment."""

    layer: str
    tracks_per_gcell: int
    assigned_segments: int
    conflicted_segments: int
    peak_occupancy: float     # worst gcell-boundary fill ratio
    mean_occupancy: float

    @property
    def conflict_fraction(self) -> float:
        total = self.assigned_segments + self.conflicted_segments
        return self.conflicted_segments / total if total else 0.0


@dataclass
class TrackAssignment:
    """Result of one side's track-assignment pass."""

    stats: dict[str, TrackStats] = field(default_factory=dict)
    #: (net, layer, gcell edge) triples that did not fit on any track.
    conflicts: list[tuple[str, str, tuple]] = field(default_factory=list)

    @property
    def total_conflicts(self) -> int:
        return len(self.conflicts)


def assign_tracks(result: RoutingResult,
                  assignment: LayerAssignment) -> TrackAssignment:
    """Greedy per-boundary track packing.

    For every gcell edge, the nets crossing it on a given layer compete
    for that layer's physical tracks; nets are served in name order
    (deterministic) and keep the same track across a straight run when
    it is free (track continuity preference).
    """
    grid = result.grid
    out = TrackAssignment()

    # Group crossings: (layer, edge) -> list of nets.
    crossings: dict[tuple[str, tuple], list[str]] = {}
    for name in sorted(result.routes):
        route = result.routes[name]
        tier = assignment.tier_of(name)
        for edge in route.edges:
            (c1, r1), (_c2, _r2) = edge
            horizontal = edge[0][1] == edge[1][1]
            layer = tier.horizontal if horizontal else tier.vertical
            crossings.setdefault((layer.name, edge), []).append(name)

    def tracks_for(layer: Layer) -> int:
        return max(1, int(grid.gcell_nm / layer.pitch_nm))

    layer_by_name = {layer.name: layer for layer in grid.layers}
    per_layer_fill: dict[str, list[float]] = {}
    per_layer_counts: dict[str, list[int]] = {}
    preferred: dict[tuple[str, str], int] = {}  # (net, layer) -> track

    for (layer_name, edge), nets in sorted(crossings.items()):
        layer = layer_by_name[layer_name]
        n_tracks = tracks_for(layer)
        used: set[int] = set()
        assigned = 0
        for net in nets:
            want = preferred.get((net, layer_name))
            track = None
            if want is not None and want not in used and want < n_tracks:
                track = want
            else:
                track = next(
                    (t for t in range(n_tracks) if t not in used), None
                )
            if track is None:
                out.conflicts.append((net, layer_name, edge))
                continue
            used.add(track)
            preferred[(net, layer_name)] = track
            assigned += 1
        per_layer_fill.setdefault(layer_name, []).append(
            len(used) / n_tracks
        )
        per_layer_counts.setdefault(layer_name, []).append(assigned)

    for layer_name, fills in per_layer_fill.items():
        layer = layer_by_name[layer_name]
        # Added left to right: builtins.sum over floats is a compensated
        # sum on Python >= 3.12.
        total_fill = 0.0
        for fill in fills:
            total_fill += fill
        conflicted = sum(
            1 for _n, l, _e in out.conflicts if l == layer_name
        )
        out.stats[layer_name] = TrackStats(
            layer=layer_name,
            tracks_per_gcell=tracks_for(layer),
            assigned_segments=sum(per_layer_counts[layer_name]),
            conflicted_segments=conflicted,
            peak_occupancy=max(fills),
            mean_occupancy=total_fill / len(fills),
        )
    return out
