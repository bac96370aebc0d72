"""DEF merging: combine the frontside and backside DEFs for extraction.

Section III.C: "we first merged the two DEFs into one DEF.  It contains
the P&R information of all the frontside and backside layers and is
used in the accurate dual-sided RC extraction."  Layer names are
side-qualified (``FM*`` / ``BM*``), so merging is a union of routed
segments per net plus a consistency check on the component lists.
"""

from __future__ import annotations

from ..core.errors import MergeError
from .def_ import DefDesign


def _routes_backside(design: DefDesign) -> bool:
    return any(layer.startswith("B") for layer in design.layers_used())


def merge_defs(front: DefDesign, back: DefDesign,
               name: str | None = None) -> DefDesign:
    """Merge the two per-side DEFs into one dual-sided design view.

    The arguments are oriented by the layers they actually route
    (``FM*`` vs ``BM*``), so the merge is symmetric: swapping the two
    DEFs yields the identical merged design.
    """
    if _routes_backside(front) and not _routes_backside(back):
        front, back = back, front
    front_masters = {c.name: c.master for c in front.components.values()}
    back_masters = {c.name: c.master for c in back.components.values()}
    if front_masters != back_masters:
        only_front = set(front_masters) - set(back_masters)
        only_back = set(back_masters) - set(front_masters)
        raise MergeError(
            "front/back DEF component mismatch: "
            f"{len(only_front)} only-front, {len(only_back)} only-back",
            "def_merge",
        )
    front_layers = {l for l in front.layers_used() if l.startswith("B")}
    back_layers = {l for l in back.layers_used() if l.startswith("F")}
    if front_layers or back_layers:
        raise MergeError(
            f"side/layer mismatch: front uses {front_layers}, "
            f"back uses {back_layers}",
            "def_merge",
        )

    merged = DefDesign(
        name=name or front.name.removesuffix("_front"),
        die_width_nm=max(front.die_width_nm, back.die_width_nm),
        die_height_nm=max(front.die_height_nm, back.die_height_nm),
        components=dict(front.components),
    )
    for source in (front, back):
        for net_name, segments in source.nets.items():
            merged.nets.setdefault(net_name, []).extend(segments)
        for net_name, segments in source.special_nets.items():
            merged.special_nets.setdefault(net_name, []).extend(segments)
        for blockage in source.blockages:
            if blockage not in merged.blockages:
                merged.blockages.append(blockage)
    return merged
