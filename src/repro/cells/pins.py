"""Standard-cell pins, including the FFET's dual-sided pin constructs.

Section III.A of the paper distinguishes:

* the **dual-sided output pin** — every logic output is an n-p common
  drain made by the Drain Merge, reachable from both frontside and
  backside M0 tracks (``sides = {FRONT, BACK}``); and
* single-sided **input pins**, whose side is chosen at library-prep
  time by the input-pin redistribution step (``FP_x BP_y`` DoEs).

The rejected alternative (dual-sided *input* pins via Gate Merge) is
representable too — :mod:`repro.cells.redistribution` uses it for the
ablation study — but doubles pin density, which is why the paper
discards it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

from ..tech import Side


class PinDirection(enum.Enum):
    INPUT = "input"
    OUTPUT = "output"
    CLOCK = "clock"  # clock inputs are kept distinct for CTS


@dataclass(frozen=True)
class Pin:
    """One logical pin of a cell master.

    Attributes
    ----------
    name:
        Pin name, e.g. ``"A"``, ``"ZN"``, ``"CK"``.
    direction:
        Input / output / clock.
    sides:
        Wafer sides on which the physical pin shape exists.  CFET pins
        are always ``{FRONT}``; FFET output pins are ``{FRONT, BACK}``
        (Drain Merge); FFET input pins carry whichever side the
        redistribution assigned.
    cap_ff:
        Input capacitance (0 for outputs).
    track:
        M0 track offset inside the cell used by the pin shape; only
        needed by the LEF writer and pin-density accounting.
    """

    name: str
    direction: PinDirection
    sides: frozenset[Side] = frozenset({Side.FRONT})
    cap_ff: float = 0.0
    track: int = 0

    def __post_init__(self) -> None:
        if not self.sides:
            raise ValueError(f"pin {self.name}: needs at least one side")
        if self.cap_ff < 0:
            raise ValueError(f"pin {self.name}: negative capacitance")

    @property
    def is_input(self) -> bool:
        return self.direction in (PinDirection.INPUT, PinDirection.CLOCK)

    @property
    def is_output(self) -> bool:
        return self.direction is PinDirection.OUTPUT

    @property
    def is_clock(self) -> bool:
        return self.direction is PinDirection.CLOCK

    @property
    def is_dual_sided(self) -> bool:
        return len(self.sides) == 2

    def on_side(self, side: Side) -> bool:
        return side in self.sides

    @property
    def side(self) -> Side:
        """The single side of a single-sided pin.

        Raises ``ValueError`` for dual-sided pins, where the router must
        choose a side per connection instead.
        """
        if self.is_dual_sided:
            raise ValueError(f"pin {self.name} is dual-sided; no unique side")
        return next(iter(self.sides))

    def moved_to(self, side: Side) -> "Pin":
        """Copy of this pin relocated to a single wafer side."""
        return replace(self, sides=frozenset({side}))

    def widened(self) -> "Pin":
        """Copy of this pin present on both sides (Gate Merge)."""
        return replace(self, sides=frozenset({Side.FRONT, Side.BACK}))


def front_pin(name: str, direction: PinDirection, cap_ff: float = 0.0,
              track: int = 0) -> Pin:
    """Convenience constructor for a frontside-only pin."""
    return Pin(name, direction, frozenset({Side.FRONT}), cap_ff, track)


def dual_pin(name: str, direction: PinDirection, cap_ff: float = 0.0,
             track: int = 0) -> Pin:
    """Convenience constructor for a dual-sided pin (Drain/Gate Merge)."""
    return Pin(name, direction, frozenset({Side.FRONT, Side.BACK}), cap_ff, track)
