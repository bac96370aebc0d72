"""Cell templates: the structural recipes the characterizer consumes.

A template is technology-independent; it records the CMOS stage
topology, input pins, transistor count, the boolean function, and the
footprint in CPP for *each* architecture.  The per-architecture widths
encode the paper's Fig. 4:

* most cells have the same CPP count in both technologies, so the 3.5T
  FFET wins exactly the 12.5 % height scaling over the 4T CFET;
* MUX- and DFF-class cells are narrower in FFET thanks to the **Split
  Gate** (complementary clock pairs stack vertically, saving CPPs);
* AOI22/OAI22 need an extra Drain Merge in FFET and waste some area
  (Section II.B), eroding most of the height gain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping


@dataclass(frozen=True)
class StageSpec:
    """One CMOS stage: relative drive and worst-case stack factor."""

    drive: float
    stack_factor: float = 1.0

    def __post_init__(self) -> None:
        if self.drive <= 0 or self.stack_factor < 1.0:
            raise ValueError("invalid stage spec")


@dataclass(frozen=True)
class InputSpec:
    """One input pin: name, relative gate cap, clock flag, arc adder."""

    name: str
    cap_mult: float = 1.0
    is_clock: bool = False
    #: Extra fixed delay on arcs from this pin (e.g. late select inputs).
    arc_extra_ps: float = 0.0


@dataclass(frozen=True)
class SeqSpec:
    """Sequential constraints in units of one FO1 stage delay."""

    setup_stage_delays: float = 8.0
    hold_stage_delays: float = 1.0


@dataclass(frozen=True)
class CellTemplate:
    name: str
    function: str
    drive: float
    inputs: tuple[InputSpec, ...]
    stages: tuple[StageSpec, ...]
    cfet_width_cpp: float
    ffet_width_cpp: float
    n_transistors: int
    output: str = "Z"
    sequential: SeqSpec | None = None
    logic: Callable[[Mapping[str, bool]], bool] | None = None
    uses_split_gate: bool = False
    #: Relative drive seen by the inputs (first stage drive).
    drive_of_inputs: float = 1.0

    def width_cpp(self, arch: str) -> float:
        if arch == "cfet":
            return self.cfet_width_cpp
        if arch == "ffet":
            return self.ffet_width_cpp
        raise ValueError(f"unknown architecture {arch!r}")


# --------------------------------------------------------------------------
# Boolean functions (used by functional tests and netlist simulation).
# --------------------------------------------------------------------------
def _inv(v):
    return not v["A"]


def _buf(v):
    return bool(v["A"])


def _nand2(v):
    return not (v["A"] and v["B"])


def _nor2(v):
    return not (v["A"] or v["B"])


def _nand3(v):
    return not (v["A"] and v["B"] and v["C"])


def _nor3(v):
    return not (v["A"] or v["B"] or v["C"])


def _and2(v):
    return v["A"] and v["B"]


def _or2(v):
    return v["A"] or v["B"]


def _xor2(v):
    return bool(v["A"]) != bool(v["B"])


def _xnor2(v):
    return bool(v["A"]) == bool(v["B"])


def _aoi21(v):
    return not ((v["A1"] and v["A2"]) or v["B"])


def _oai21(v):
    return not ((v["A1"] or v["A2"]) and v["B"])


def _aoi22(v):
    return not ((v["A1"] and v["A2"]) or (v["B1"] and v["B2"]))


def _oai22(v):
    return not ((v["A1"] or v["A2"]) and (v["B1"] or v["B2"]))


def _mux2(v):
    return bool(v["B"] if v["S"] else v["A"])


def _tiehi(v):
    return True


def _tielo(v):
    return False


# --------------------------------------------------------------------------
# Template construction helpers.
# --------------------------------------------------------------------------
def _ins(*names: str, cap_mult: float = 1.0) -> tuple[InputSpec, ...]:
    return tuple(InputSpec(n, cap_mult=cap_mult) for n in names)


def _inv_template(drive: float, width: float) -> CellTemplate:
    return CellTemplate(
        name=f"INVD{_d(drive)}", function="INV", drive=drive,
        inputs=_ins("A"), stages=(StageSpec(drive),),
        cfet_width_cpp=width, ffet_width_cpp=width,
        n_transistors=int(2 * drive), output="ZN", logic=_inv,
        drive_of_inputs=drive,
    )


def _buf_template(drive: float, width: float, clock: bool = False) -> CellTemplate:
    prefix = "CLKBUF" if clock else "BUF"
    first = max(drive / 2.0, 0.5)
    return CellTemplate(
        name=f"{prefix}D{_d(drive)}", function=prefix, drive=drive,
        inputs=(InputSpec("A", is_clock=False),),
        stages=(StageSpec(first), StageSpec(drive)),
        cfet_width_cpp=width, ffet_width_cpp=width,
        n_transistors=int(2 * (first + drive)), output="Z", logic=_buf,
        drive_of_inputs=first,
    )


def _d(drive: float) -> str:
    return str(int(drive)) if float(drive).is_integer() else str(drive)


def standard_templates() -> list[CellTemplate]:
    """The full cell list of Fig. 4, plus drive variants."""
    templates: list[CellTemplate] = []

    for drive, width in ((1, 2), (2, 3), (4, 5), (8, 9)):
        templates.append(_inv_template(drive, width))
    for drive, width in ((1, 4), (2, 5), (4, 7), (8, 11)):
        templates.append(_buf_template(drive, width))
    for drive, width in ((2, 5), (4, 7), (8, 11)):
        templates.append(_buf_template(drive, width, clock=True))

    def gate(name, function, drive, inputs, stack, cfet_w, ffet_w, ntr, logic,
             stages=None, output="ZN", split=False, cap_mult=1.0):
        templates.append(
            CellTemplate(
                name=name, function=function, drive=drive,
                inputs=_ins(*inputs, cap_mult=cap_mult),
                stages=stages or (StageSpec(drive, stack),),
                cfet_width_cpp=cfet_w, ffet_width_cpp=ffet_w,
                n_transistors=ntr, output=output, logic=logic,
                uses_split_gate=split, drive_of_inputs=drive,
            )
        )

    gate("NAND2D1", "NAND2", 1, ("A", "B"), 1.25, 3, 3, 4, _nand2)
    gate("NAND2D2", "NAND2", 2, ("A", "B"), 1.25, 5, 5, 8, _nand2)
    gate("NOR2D1", "NOR2", 1, ("A", "B"), 1.40, 3, 3, 4, _nor2)
    gate("NOR2D2", "NOR2", 2, ("A", "B"), 1.40, 5, 5, 8, _nor2)
    gate("NAND3D1", "NAND3", 1, ("A", "B", "C"), 1.55, 4, 4, 6, _nand3)
    gate("NOR3D1", "NOR3", 1, ("A", "B", "C"), 1.80, 4, 4, 6, _nor3)
    gate("AND2D1", "AND2", 1, ("A", "B"), 1.0, 4, 4, 6, _and2,
         stages=(StageSpec(0.5, 1.25), StageSpec(1)), output="Z")
    gate("OR2D1", "OR2", 1, ("A", "B"), 1.0, 4, 4, 6, _or2,
         stages=(StageSpec(0.5, 1.40), StageSpec(1)), output="Z")
    gate("XOR2D1", "XOR2", 1, ("A", "B"), 1.0, 6, 6, 10, _xor2,
         stages=(StageSpec(0.5, 1.3), StageSpec(1, 1.6)), output="Z",
         cap_mult=1.8)
    gate("XNOR2D1", "XNOR2", 1, ("A", "B"), 1.0, 6, 6, 10, _xnor2,
         stages=(StageSpec(0.5, 1.3), StageSpec(1, 1.6)), output="Z",
         cap_mult=1.8)
    gate("AOI21D1", "AOI21", 1, ("A1", "A2", "B"), 1.50, 4, 4, 6, _aoi21)
    gate("OAI21D1", "OAI21", 1, ("A1", "A2", "B"), 1.50, 4, 4, 6, _oai21)
    # Extra Drain Merge wastes area in the FFET versions (Section II.B).
    gate("AOI22D1", "AOI22", 1, ("A1", "A2", "B1", "B2"), 1.70, 5, 5.75, 8, _aoi22)
    gate("OAI22D1", "OAI22", 1, ("A1", "A2", "B1", "B2"), 1.70, 5, 5.75, 8, _oai22)
    # Split Gate saves CPPs in transmission-gate based cells (Fig. 3).
    gate("MUX2D1", "MUX2", 1, ("A", "B", "S"), 1.0, 7, 6, 12, _mux2,
         stages=(StageSpec(0.7, 1.5), StageSpec(1)), output="Z", split=True)
    gate("MUX2D2", "MUX2", 2, ("A", "B", "S"), 1.0, 9, 8, 16, _mux2,
         stages=(StageSpec(1.2, 1.5), StageSpec(2)), output="Z", split=True)

    for drive, cfet_w, ffet_w in ((1, 13, 11), (2, 14, 12)):
        templates.append(
            CellTemplate(
                name=f"DFFD{drive}", function="DFF", drive=drive,
                inputs=(InputSpec("D", cap_mult=1.2),
                        InputSpec("CK", cap_mult=1.5, is_clock=True)),
                stages=(StageSpec(0.7, 1.5), StageSpec(0.8, 1.3),
                        StageSpec(drive)),
                cfet_width_cpp=cfet_w, ffet_width_cpp=ffet_w,
                n_transistors=24, output="Q",
                sequential=SeqSpec(),
                uses_split_gate=True,
            )
        )

    gate("TIEHI", "TIEHI", 1, (), 1.0, 2, 2, 2, _tiehi, output="Z")
    gate("TIELO", "TIELO", 1, (), 1.0, 2, 2, 2, _tielo, output="Z")
    return templates
