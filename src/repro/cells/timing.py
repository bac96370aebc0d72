"""NLDM-style lookup-table timing and power models.

Each combinational arc carries four tables indexed by (input slew,
output load): rise delay, fall delay, rise transition, fall transition —
the same shape a Liberty NLDM ``cell_rise``/``rise_transition`` group
has.  Sequential cells add clock-to-Q arcs plus setup/hold constraint
values.  Table lookups use bilinear interpolation with clamped
extrapolation, as commercial STA engines do.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Default characterization grid (input slew in ps, output load in fF).
DEFAULT_SLEWS_PS: tuple[float, ...] = (2.0, 6.0, 15.0, 35.0, 80.0)
DEFAULT_LOADS_FF: tuple[float, ...] = (0.5, 2.0, 6.0, 15.0, 40.0)


@dataclass
class LookupTable:
    """A 2-D lookup table over (input slew, output load)."""

    slews_ps: np.ndarray
    loads_ff: np.ndarray
    values: np.ndarray  # shape (len(slews), len(loads))

    def __post_init__(self) -> None:
        self.slews_ps = np.asarray(self.slews_ps, dtype=float)
        self.loads_ff = np.asarray(self.loads_ff, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (len(self.slews_ps), len(self.loads_ff)):
            raise ValueError(
                f"table shape {self.values.shape} does not match axes "
                f"({len(self.slews_ps)}, {len(self.loads_ff)})"
            )
        if np.any(np.diff(self.slews_ps) <= 0) or np.any(np.diff(self.loads_ff) <= 0):
            raise ValueError("table axes must be strictly increasing")
        # Plain-Python mirrors for the hot scalar-lookup path (STA calls
        # this millions of times; numpy scalar ops are ~20x slower).
        self._slews = self.slews_ps.tolist()
        self._loads = self.loads_ff.tolist()
        self._rows = self.values.tolist()

    def __call__(self, slew_ps: float, load_ff: float) -> float:
        """Bilinear interpolation, clamped at the grid edges."""
        from bisect import bisect_right

        slews, loads, rows = self._slews, self._loads, self._rows
        s = slew_ps
        if s <= slews[0]:
            s = slews[0]
        elif s >= slews[-1]:
            s = slews[-1]
        c = load_ff
        if c <= loads[0]:
            c = loads[0]
        elif c >= loads[-1]:
            c = loads[-1]
        i = bisect_right(slews, s) - 1
        if i > len(slews) - 2:
            i = len(slews) - 2
        j = bisect_right(loads, c) - 1
        if j > len(loads) - 2:
            j = len(loads) - 2
        s0, s1 = slews[i], slews[i + 1]
        c0, c1 = loads[j], loads[j + 1]
        ts = (s - s0) / (s1 - s0)
        tc = (c - c0) / (c1 - c0)
        r0, r1 = rows[i], rows[i + 1]
        top = r0[j] * (1 - tc) + r0[j + 1] * tc
        bottom = r1[j] * (1 - tc) + r1[j + 1] * tc
        return top * (1 - ts) + bottom * ts

    def mean(self) -> float:
        """Average table value — used for library-level KPI comparisons."""
        return float(self.values.mean())

    @classmethod
    def from_function(cls, fn, slews_ps=DEFAULT_SLEWS_PS,
                      loads_ff=DEFAULT_LOADS_FF) -> "LookupTable":
        """Build a table by sampling ``fn(slew_ps, load_ff)`` on a grid."""
        slews = np.asarray(slews_ps, dtype=float)
        loads = np.asarray(loads_ff, dtype=float)
        values = np.array([[fn(s, c) for c in loads] for s in slews])
        return cls(slews, loads, values)


@dataclass
class TimingArc:
    """A combinational (or clock-to-Q) timing arc ``from_pin -> to_pin``.

    ``unate`` follows Liberty semantics: ``"+"`` (positive unate: a
    rising input causes a rising output), ``"-"`` (negative unate) or
    ``"x"`` (non-unate: either input edge can cause either output edge).
    """

    from_pin: str
    to_pin: str
    rise_delay: LookupTable
    fall_delay: LookupTable
    rise_transition: LookupTable
    fall_transition: LookupTable
    unate: str = "-"

    def input_edges_for(self, rise_out: bool) -> tuple[bool, ...]:
        """Which input edges can cause the given output edge."""
        if self.unate == "+":
            return (rise_out,)
        if self.unate == "-":
            return (not rise_out,)
        return (True, False)

    def delay(self, slew_ps: float, load_ff: float, rise: bool) -> float:
        table = self.rise_delay if rise else self.fall_delay
        return table(slew_ps, load_ff)

    def transition(self, slew_ps: float, load_ff: float, rise: bool) -> float:
        table = self.rise_transition if rise else self.fall_transition
        return table(slew_ps, load_ff)

    def worst_delay(self, slew_ps: float, load_ff: float) -> float:
        return max(
            self.rise_delay(slew_ps, load_ff),
            self.fall_delay(slew_ps, load_ff),
        )


@dataclass
class PowerModel:
    """Cell-level power data.

    ``rise_energy`` / ``fall_energy`` are internal switching energies
    (fJ) per output transition, tabulated like delays.  ``leakage_nw``
    is state-averaged leakage in nW.
    """

    rise_energy: LookupTable
    fall_energy: LookupTable
    leakage_nw: float

    def transition_energy_fj(self, slew_ps: float, load_ff: float) -> float:
        """Rise + fall internal energy — the paper's 'transition power' KPI."""
        return self.rise_energy(slew_ps, load_ff) + self.fall_energy(slew_ps, load_ff)


@dataclass
class SequentialTiming:
    """Constraint data for flip-flops."""

    setup_ps: float
    hold_ps: float
    #: Minimum clock pulse width, ps.
    min_pulse_ps: float = 20.0

    def __post_init__(self) -> None:
        if self.setup_ps < 0 or self.min_pulse_ps < 0:
            raise ValueError("setup and pulse width must be non-negative")
