"""Analytic switch-level characterization of standard cells.

The paper characterizes its FFET/CFET libraries with SPICE on a virtual
5 nm PDK; here an analytic RC switch model plays that role.  Both
technologies share the same intrinsic two-fin transistor (Section IV),
so all architecture differences enter through *intra-cell parasitics*:

* the **CFET** routes part of its p-logic on the frontside through
  supervias — a fixed series resistance and extra capacitance on output
  and internal nets, plus intra-cell wires that span the cell width;
* the **FFET** eliminates supervias; only the Drain Merge via remains on
  each output (a small resistance and a drive-proportional capacitance),
  and its symmetric stacking keeps internal stage-to-stage connections
  vertical and short.

These mechanisms reproduce the Table I signature: INV transition power
roughly unchanged (the Drain Merge offsets the wire savings), BUF
transition power and all timings clearly better on FFET, with the gap
growing with drive strength (the supervia does not scale with the
transistor), and identical leakage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..tech import Side, TechNode
from .cell import CellMaster
from .pins import Pin, PinDirection
from .templates import CellTemplate
from .timing import (
    DEFAULT_LOADS_FF,
    DEFAULT_SLEWS_PS,
    LookupTable,
    PowerModel,
    SequentialTiming,
    TimingArc,
)

#: Supply voltage of the virtual 5 nm node, volts.
VDD_V = 0.70

_LN2 = math.log(2.0)
_LN9 = math.log(9.0)

#: Fraction of the input slew that adds to stage delay (slew pushout).
_SLEW_DELAY_FRACTION = 0.12
#: Short-circuit energy per transition as a fraction of R-limited energy.
_SHORT_CIRCUIT_FRACTION = 0.06
#: Rise transitions are slower than falls (p-mobility deficit).
_RISE_RES_FACTOR = 1.12
_FALL_RES_FACTOR = 0.92


@dataclass(frozen=True)
class ArchParasitics:
    """Architecture-dependent intra-cell parasitics.

    Via resistances have a fixed part plus a part that shrinks with the
    stage drive (wider devices get more via cuts, but the via array does
    not scale as fast as the transistor) — this is what makes the
    FFET-vs-CFET timing gap grow with drive strength, as in Table I.

    The FFET's *rise* path keeps a via penalty: the pFET sits on the
    backside and reaches the frontside output track through the Drain
    Merge, so FFET rise arcs improve less than fall arcs — also visible
    in Table I.
    """

    #: Multipliers on intra-cell wire cap / res (FFET < 1: no supervias).
    wire_cap_factor: float
    wire_res_factor: float
    #: Series via resistance on every stage output: fixed + scaled/drive.
    via_res_fixed_kohm: float
    via_res_scaled_kohm: float
    #: Additional via resistance on the *rise* path only.
    rise_via_res_fixed_kohm: float
    rise_via_res_scaled_kohm: float
    #: Output capacitance per CPP of cell width (FFET Drain Merge row).
    output_cap_per_cpp_ff: float
    #: Internal-net extra capacitance: fixed + per stage drive.
    internal_cap_fixed_ff: float
    internal_cap_per_drive_ff: float
    #: True when internal wires detour across the cell (CFET supervias);
    #: False when stages connect vertically (FFET symmetric stacking).
    internal_wire_spans_cell: bool

    @classmethod
    def for_tech(cls, tech: TechNode) -> "ArchParasitics":
        dev = tech.device
        if tech.arch == "cfet":
            return cls(
                wire_cap_factor=dev.intra_cap_factor,
                wire_res_factor=dev.intra_res_factor,
                via_res_fixed_kohm=0.13,
                via_res_scaled_kohm=0.40,
                rise_via_res_fixed_kohm=0.0,
                rise_via_res_scaled_kohm=0.0,
                output_cap_per_cpp_ff=0.0,
                internal_cap_fixed_ff=0.0,
                internal_cap_per_drive_ff=0.072,
                internal_wire_spans_cell=True,
            )
        if tech.arch == "ffet":
            return cls(
                wire_cap_factor=dev.intra_cap_factor,
                wire_res_factor=dev.intra_res_factor,
                via_res_fixed_kohm=0.010,
                via_res_scaled_kohm=0.020,
                rise_via_res_fixed_kohm=0.050,
                rise_via_res_scaled_kohm=0.140,
                output_cap_per_cpp_ff=0.0083,
                internal_cap_fixed_ff=0.010,
                internal_cap_per_drive_ff=0.0,
                internal_wire_spans_cell=False,
            )
        raise ValueError(f"unknown architecture {tech.arch!r}")

    def via_res_kohm(self, drive: float, rise: bool) -> float:
        r = self.via_res_fixed_kohm + self.via_res_scaled_kohm / drive
        if rise:
            r += self.rise_via_res_fixed_kohm + self.rise_via_res_scaled_kohm / drive
        return r


@dataclass(frozen=True)
class _Stage:
    """Resolved electrical view of one CMOS stage inside a cell."""

    res_rise_kohm: float
    res_fall_kohm: float
    parasitic_ff: float          # cap on this stage's output net
    next_gate_ff: float          # gate cap of the following stage (0 = output)


class Characterizer:
    """Builds characterized :class:`CellMaster` objects for one tech node."""

    def __init__(self, tech: TechNode,
                 slews_ps=DEFAULT_SLEWS_PS, loads_ff=DEFAULT_LOADS_FF) -> None:
        self.tech = tech
        self.arch = ArchParasitics.for_tech(tech)
        self.slews_ps = tuple(slews_ps)
        self.loads_ff = tuple(loads_ff)

    # -- stage electrical model -------------------------------------------
    def _resolve_stages(self, template: CellTemplate) -> list[_Stage]:
        dev = self.tech.device
        arch = self.arch
        width_cpp = template.width_cpp(self.tech.arch)
        stages: list[_Stage] = []
        n = len(template.stages)
        for i, spec in enumerate(template.stages):
            is_last = i == n - 1
            r_base = dev.drive_resistance_kohm * spec.stack_factor / spec.drive
            r_rise = (r_base * _RISE_RES_FACTOR
                      + arch.via_res_kohm(spec.drive, rise=True))
            r_fall = (r_base * _FALL_RES_FACTOR
                      + arch.via_res_kohm(spec.drive, rise=False))

            parasitic = dev.drain_cap_ff * spec.drive * spec.stack_factor
            if is_last:
                # Output net: the pin wire spans part of the cell width in
                # both architectures; FFET adds the Drain Merge row cap.
                wire_cpp = 0.5 * width_cpp
                parasitic += (
                    dev.intra_cap_per_cpp_ff * wire_cpp * arch.wire_cap_factor
                )
                parasitic += arch.output_cap_per_cpp_ff * width_cpp
                next_gate = 0.0
            else:
                if arch.internal_wire_spans_cell:
                    # CFET: the p-logic detours over the frontside; the
                    # detour grows with the device width it must strap.
                    wire_cpp = min(0.45 * width_cpp * spec.drive, 0.9 * width_cpp)
                else:
                    wire_cpp = 0.5  # FFET: vertical stage-to-stage hop
                parasitic += (
                    dev.intra_cap_per_cpp_ff * wire_cpp * arch.wire_cap_factor
                )
                parasitic += (arch.internal_cap_fixed_ff
                              + arch.internal_cap_per_drive_ff * spec.drive)
                next_spec = template.stages[i + 1]
                next_gate = dev.gate_cap_ff * next_spec.drive
            stages.append(_Stage(r_rise, r_fall, parasitic, next_gate))
        return stages

    # -- delay / slew of a full input-to-output path -----------------------
    def _path_delay(self, stages: list[_Stage], slew_ps: float, load_ff: float,
                    rise_out: bool) -> tuple[float, float]:
        """(delay_ps, output_slew_ps) through all stages.

        Alternating stages invert, so the transition direction flips at
        every stage; ``rise_out`` fixes the direction at the output.
        """
        n = len(stages)
        total = 0.0
        slew = slew_ps
        for i, stage in enumerate(stages):
            # Direction at this stage's output.
            flips_after = n - 1 - i
            stage_rise = rise_out if flips_after % 2 == 0 else not rise_out
            r = stage.res_rise_kohm if stage_rise else stage.res_fall_kohm
            cap = stage.parasitic_ff + (load_ff if i == n - 1 else stage.next_gate_ff)
            total += _LN2 * r * cap + _SLEW_DELAY_FRACTION * slew
            slew = _LN9 * r * cap
        return total, slew

    def _switch_energy_fj(self, stages: list[_Stage], slew_ps: float,
                          load_ff: float, rise_out: bool) -> float:
        """Internal energy of one output transition (load excluded)."""
        energy = 0.0
        for i, stage in enumerate(stages):
            internal_cap = stage.parasitic_ff
            if i < len(stages) - 1:
                internal_cap += stage.next_gate_ff
            energy += internal_cap * VDD_V * VDD_V
            # Short-circuit: both networks conduct during the input slew.
            r = 0.5 * (stage.res_rise_kohm + stage.res_fall_kohm)
            drive_cap = internal_cap + (load_ff if i == len(stages) - 1 else 0.0)
            energy += _SHORT_CIRCUIT_FRACTION * drive_cap * VDD_V * VDD_V * (
                1.0 + 0.01 * slew_ps / max(r, 1e-6)
            )
        return energy

    # -- public API ------------------------------------------------------------
    def characterize(self, template: CellTemplate) -> CellMaster:
        """Produce a fully characterized cell master for this tech node."""
        stages = self._resolve_stages(template)
        dev = self.tech.device

        pins: dict[str, Pin] = {}
        for i, spec in enumerate(template.inputs):
            direction = PinDirection.CLOCK if spec.is_clock else PinDirection.INPUT
            pins[spec.name] = Pin(
                spec.name,
                direction,
                frozenset({Side.FRONT}),
                cap_ff=dev.gate_cap_ff * spec.cap_mult * template.drive_of_inputs,
                track=i,
            )
        if self.tech.dual_sided_pins:
            # Dual-sided output pin via the Drain Merge (Section III.A).
            out_sides = frozenset({Side.FRONT, Side.BACK})
        else:
            out_sides = frozenset({Side.FRONT})
        out_name = template.output
        pins[out_name] = Pin(out_name, PinDirection.OUTPUT, out_sides,
                             track=len(template.inputs))

        arcs = []
        unate = _UNATENESS.get(template.function, "x")
        for spec in template.inputs:
            if template.sequential is not None and not spec.is_clock:
                continue  # D -> Q is not a combinational arc
            if spec.is_clock and template.sequential is None:
                continue
            arc_unate = "x" if spec.is_clock else unate
            if template.function == "MUX2" and spec.name == "S":
                arc_unate = "x"  # the select can cause either edge
            arcs.append(self._make_arc(spec.name, out_name, stages,
                                       extra_delay_ps=spec.arc_extra_ps,
                                       unate=arc_unate))

        rise_energy = LookupTable.from_function(
            lambda s, c: self._switch_energy_fj(stages, s, c, rise_out=True),
            self.slews_ps, self.loads_ff,
        )
        fall_energy = LookupTable.from_function(
            lambda s, c: self._switch_energy_fj(stages, s, c, rise_out=False),
            self.slews_ps, self.loads_ff,
        )
        leakage = dev.leakage_nw * template.n_transistors / 2.0
        power = PowerModel(rise_energy, fall_energy, leakage)

        sequential = None
        if template.sequential is not None:
            base_stage_ps = _LN2 * dev.drive_resistance_kohm * (
                dev.gate_cap_ff + dev.drain_cap_ff
            )
            sequential = SequentialTiming(
                setup_ps=template.sequential.setup_stage_delays * base_stage_ps,
                hold_ps=template.sequential.hold_stage_delays * base_stage_ps,
            )

        return CellMaster(
            name=template.name,
            function=template.function,
            drive=template.drive,
            width_cpp=template.width_cpp(self.tech.arch),
            height_tracks=self.tech.cell_height_tracks,
            pins=pins,
            arcs=arcs,
            power=power,
            sequential=sequential,
            n_transistors=template.n_transistors,
            logic_fn=template.logic,
        )

    def _make_arc(self, from_pin: str, to_pin: str, stages: list[_Stage],
                  extra_delay_ps: float = 0.0, unate: str = "-") -> TimingArc:
        def table(rise: bool, transition: bool) -> LookupTable:
            def fn(slew_ps: float, load_ff: float) -> float:
                delay, out_slew = self._path_delay(stages, slew_ps, load_ff, rise)
                return out_slew if transition else delay + extra_delay_ps

            return LookupTable.from_function(fn, self.slews_ps, self.loads_ff)

        return TimingArc(
            from_pin=from_pin,
            to_pin=to_pin,
            rise_delay=table(rise=True, transition=False),
            fall_delay=table(rise=False, transition=False),
            rise_transition=table(rise=True, transition=True),
            fall_transition=table(rise=False, transition=True),
            unate=unate,
        )


#: Liberty-style unateness by cell function.
_UNATENESS = {
    "INV": "-", "NAND2": "-", "NAND3": "-", "NOR2": "-", "NOR3": "-",
    "AOI21": "-", "AOI22": "-", "OAI21": "-", "OAI22": "-",
    "BUF": "+", "CLKBUF": "+", "AND2": "+", "OR2": "+",
    "XOR2": "x", "XNOR2": "x", "MUX2": "+", "DFF": "x",
    "TIEHI": "+", "TIELO": "+",
}
