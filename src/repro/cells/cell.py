"""Cell masters: the library view of one standard cell."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

from ..tech import Side, TechNode
from .pins import Pin
from .timing import PowerModel, SequentialTiming, TimingArc


@dataclass
class CellMaster:
    """One standard cell in a library.

    A master owns geometry (width in CPP, height in tracks), pins,
    characterized timing arcs and power data.  Input-pin redistribution
    produces *variants* of a master that share everything except the pin
    sides (the paper's Section IV assumption: "the characteristics of
    the same cell remain the same across different input pin
    configurations").
    """

    name: str
    function: str                     # e.g. "INV", "NAND2", "DFF"
    drive: float                      # relative drive strength (1, 2, 4, ...)
    width_cpp: float
    height_tracks: float
    pins: dict[str, Pin]
    arcs: list[TimingArc] = field(default_factory=list)
    power: PowerModel | None = None
    sequential: SequentialTiming | None = None
    n_transistors: int = 0
    #: Optional boolean function for functional verification in tests:
    #: maps {input pin name: bool} -> bool for the (single) output.
    logic_fn: Callable[[Mapping[str, bool]], bool] | None = None
    #: Name of the master this cell is a pin-variant of (None for bases).
    base_name: str | None = None

    def __post_init__(self) -> None:
        if self.width_cpp <= 0:
            raise ValueError(f"{self.name}: width must be positive")
        for pin_name, pin in self.pins.items():
            if pin_name != pin.name:
                raise ValueError(f"{self.name}: pin dict key {pin_name!r} != {pin.name!r}")

    # -- pin queries ---------------------------------------------------------
    @property
    def input_pins(self) -> list[Pin]:
        return [p for p in self.pins.values() if p.is_input and not p.is_clock]

    @property
    def clock_pins(self) -> list[Pin]:
        return [p for p in self.pins.values() if p.is_clock]

    @property
    def output_pins(self) -> list[Pin]:
        return [p for p in self.pins.values() if p.is_output]

    @property
    def output(self) -> Pin:
        outs = self.output_pins
        if len(outs) != 1:
            raise ValueError(f"{self.name}: expected one output, has {len(outs)}")
        return outs[0]

    @property
    def is_sequential(self) -> bool:
        return self.sequential is not None

    def pin(self, name: str) -> Pin:
        try:
            return self.pins[name]
        except KeyError:
            raise KeyError(f"cell {self.name} has no pin {name!r}") from None

    # -- geometry --------------------------------------------------------------
    def area_nm2(self, tech: TechNode) -> float:
        return self.width_cpp * tech.cpp_nm * self.height_tracks * tech.track_pitch_nm

    def width_nm(self, tech: TechNode) -> float:
        return self.width_cpp * tech.cpp_nm

    def pin_count_on(self, side: Side) -> int:
        """Physical pin shapes on one side (dual-sided pins count on both)."""
        return sum(1 for p in self.pins.values() if p.on_side(side))

    def pin_density(self, side: Side) -> float:
        """Pin shapes per CPP of cell width on one wafer side."""
        return self.pin_count_on(side) / self.width_cpp

    # -- timing ----------------------------------------------------------------
    def arcs_to(self, output_pin: str) -> list[TimingArc]:
        return [a for a in self.arcs if a.to_pin == output_pin]

    def arc(self, from_pin: str, to_pin: str) -> TimingArc:
        for a in self.arcs:
            if a.from_pin == from_pin and a.to_pin == to_pin:
                return a
        raise KeyError(f"{self.name}: no arc {from_pin} -> {to_pin}")
