"""Standard-cell library container and library-level queries."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..tech import Side, TechNode
from .cell import CellMaster


@dataclass
class Library:
    """A characterized standard-cell library bound to one tech node."""

    tech: TechNode
    masters: dict[str, CellMaster] = field(default_factory=dict)

    # -- container protocol ---------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self.masters

    def __getitem__(self, name: str) -> CellMaster:
        try:
            return self.masters[name]
        except KeyError:
            raise KeyError(f"library {self.tech.name} has no cell {name!r}") from None

    def __iter__(self):
        return iter(self.masters.values())

    def __len__(self) -> int:
        return len(self.masters)

    def add(self, master: CellMaster) -> None:
        if master.name in self.masters:
            raise ValueError(f"duplicate cell {master.name!r}")
        self.masters[master.name] = master

    # -- queries ----------------------------------------------------------------
    def cells_of(self, function: str) -> list[CellMaster]:
        """Base masters implementing ``function``, sorted by drive."""
        found = [
            m for m in self.masters.values()
            if m.function == function and m.base_name is None
        ]
        return sorted(found, key=lambda m: m.drive)

    def cell(self, function: str, drive: float = 1) -> CellMaster:
        """The base master for ``function`` at exactly ``drive``."""
        for master in self.cells_of(function):
            if master.drive == drive:
                return master
        raise KeyError(f"no {function} at drive {drive} in {self.tech.name}")

    def strongest(self, function: str) -> CellMaster:
        cells = self.cells_of(function)
        if not cells:
            raise KeyError(f"no cells of function {function!r}")
        return cells[-1]

    def next_drive_up(self, master: CellMaster) -> CellMaster | None:
        """The same function one drive step stronger, or None at the top."""
        base = self.masters.get(master.base_name) if master.base_name else master
        siblings = self.cells_of(base.function)
        stronger = [m for m in siblings if m.drive > base.drive]
        return min(stronger, key=lambda m: m.drive) if stronger else None

    def functions(self) -> set[str]:
        return {m.function for m in self.masters.values() if m.base_name is None}

    # -- aggregate statistics ------------------------------------------------
    def mean_pin_density(self, side: Side) -> float:
        """Average pin shapes per CPP across base masters on one side."""
        bases = [m for m in self.masters.values() if m.base_name is None]
        if not bases:
            return 0.0
        # Added left to right: builtins.sum over floats is a compensated
        # sum on Python >= 3.12.
        total = 0.0
        for m in bases:
            total += m.pin_density(side)
        return total / len(bases)

    def backside_input_fraction(self) -> float:
        """Fraction of input pins located on the backside.

        This is the library-level realization of the paper's ``FP_x BP_y``
        input-pin density knob.
        """
        total = 0
        backside = 0
        for master in self.masters.values():
            if master.base_name is not None:
                continue
            for pin in master.input_pins + master.clock_pins:
                total += 1
                if pin.on_side(Side.BACK) and not pin.on_side(Side.FRONT):
                    backside += 1
        return backside / total if total else 0.0
