"""Stackup: the ordered collection of layers available to a technology."""

from __future__ import annotations

from dataclasses import dataclass, field

from .layers import Direction, Layer, LayerPurpose, Side, Via
from .rules import TABLE_II


def _direction_for(side: Side, index: int) -> Direction:
    """Alternate preferred directions, M0 horizontal on both sides.

    M0 runs along the cell row (horizontal), M1 vertical, M2 horizontal,
    and so on.  Both wafer sides follow the same convention so that the
    FFET's symmetric cell design holds.
    """
    if index % 2 == 0:
        return Direction.HORIZONTAL
    return Direction.VERTICAL


@dataclass
class Stackup:
    """All layers of one technology, with lookup and via helpers."""

    name: str
    layers: list[Layer] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._by_name = {layer.name: layer for layer in self.layers}
        if len(self._by_name) != len(self.layers):
            raise ValueError("duplicate layer names in stackup")

    # -- lookup ------------------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __getitem__(self, name: str) -> Layer:
        return self._by_name[name]

    def __iter__(self):
        return iter(self.layers)

    def __len__(self) -> int:
        return len(self.layers)

    def get(self, name: str) -> Layer | None:
        return self._by_name.get(name)

    # -- queries -----------------------------------------------------------
    def on_side(self, side: Side) -> list[Layer]:
        """Layers on one wafer side, ordered by metal level."""
        picked = [layer for layer in self.layers if layer.side is side]
        return sorted(picked, key=lambda layer: layer.index)

    def routing_layers(self, side: Side, max_level: int | None = None) -> list[Layer]:
        """Signal-routable layers on ``side`` up to metal level ``max_level``.

        M0 is excluded by construction (it is ``INTRA_CELL``); the paper
        counts routing layers starting from M1.
        """
        result = [
            layer
            for layer in self.on_side(side)
            if layer.is_routable and (max_level is None or layer.index <= max_level)
        ]
        return result

    def metal(self, side: Side, index: int) -> Layer:
        """Layer at metal level ``index`` on ``side``."""
        prefix = "FM" if side is Side.FRONT else "BM"
        return self[f"{prefix}{index}"]

    def vias(self, side: Side) -> list[Via]:
        """Vias between adjacent metal levels on one side."""
        metals = [layer for layer in self.on_side(side) if layer.index >= 0]
        return [Via(lo, hi) for lo, hi in zip(metals, metals[1:])]


def build_stackup(tech: str) -> Stackup:
    """Construct the full Table II stackup for ``'cfet'`` or ``'ffet'``."""
    tech = tech.lower()
    if tech not in ("cfet", "ffet"):
        raise ValueError(f"unknown technology {tech!r}")
    column = 0 if tech == "cfet" else 1

    layers: list[Layer] = []
    for name, pitches in TABLE_II.items():
        pitch = pitches[column]
        if pitch is None:
            continue
        if name == "Poly":
            layers.append(
                Layer(name, Side.FRONT, -1, pitch, Direction.VERTICAL,
                      LayerPurpose.POLY)
            )
            continue
        if name == "BPR":
            layers.append(
                Layer(name, Side.BACK, -1, pitch, Direction.HORIZONTAL,
                      LayerPurpose.POWER)
            )
            continue
        side = Side.FRONT if name.startswith("F") else Side.BACK
        index = int(name[2:])
        purpose = LayerPurpose.SIGNAL
        if index == 0:
            purpose = LayerPurpose.INTRA_CELL
        if tech == "cfet" and side is Side.BACK and name in ("BM1", "BM2"):
            purpose = LayerPurpose.POWER  # footnote c of Table II
        layers.append(
            Layer(name, side, index, pitch, _direction_for(side, index), purpose)
        )
    return Stackup(name=f"{tech}-5nm", layers=layers)
