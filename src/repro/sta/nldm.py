"""Stacked NLDM lookup-table interpolation kernel.

:class:`~repro.cells.timing.LookupTable` answers one scalar bilinear
lookup at a time; STA under the wireload sizing loop asks for hundreds
of thousands of them.  :class:`TableStack` registers every distinct
table once, groups tables that share the same (slew, load) axes, and
stacks each group's value grids into one ``(n_tables, k, m)`` array so
a whole level of timing-arc candidates evaluates in a handful of numpy
operations, reading each stack as one flat array.

Bit-compatibility contract: :meth:`TableStack.evaluate` performs the
*same* IEEE-754 operations in the *same* order as
``LookupTable.__call__`` — clamp to the axis ends (a value at or past
an end becomes the end; NaN passes), the same capped
``bisect_right`` cell (``searchsorted(..., side="right")`` over the
interior axis points), then the identical two-step bilinear formula —
so a stacked evaluation returns exactly the scalar path's bits for
every lane, signed zeros and NaN included.  The equivalence is pinned
by hypothesis property tests in ``tests/test_kernel_equivalence.py``.
"""

from __future__ import annotations

import numpy as np

from ..cells.timing import LookupTable


class _TableGroup:
    """Tables sharing one (slews, loads) axis pair, stacked on demand.

    ``flat`` holds every table's values row-major, one table after
    another, so the value at (table, slew cell, load cell) sits at one
    computed offset.  ``slew_steps``/``load_steps`` are the cell widths
    the scalar path computes as ``s1 - s0`` and ``c1 - c0``;
    ``slew_cuts``/``load_cuts`` the interior axis points, whose count at
    or below a value is its capped cell.
    """

    __slots__ = ("slews", "loads", "slew_steps", "load_steps", "slew_cuts",
                 "load_cuts", "values", "_flat")

    def __init__(self, slews: np.ndarray, loads: np.ndarray) -> None:
        self.slews = slews
        self.loads = loads
        self.slew_steps = slews[1:] - slews[:-1]
        self.load_steps = loads[1:] - loads[:-1]
        self.slew_cuts = slews[1:-1]
        self.load_cuts = loads[1:-1]
        self.values: list[np.ndarray] = []
        self._flat: np.ndarray | None = None

    def add(self, values: np.ndarray) -> int:
        self.values.append(values)
        self._flat = None
        return len(self.values) - 1

    @property
    def flat(self) -> np.ndarray:
        if self._flat is None:
            self._flat = np.stack(self.values).ravel()
        return self._flat


def _clamp(x: np.ndarray, lo, hi) -> np.ndarray:
    """``x`` clamped to [lo, hi] as the scalar path clamps: a value at
    or past an end becomes that end (so -0.0 at a 0.0 end reads 0.0),
    and NaN passes through."""
    return np.where(x <= lo, lo, np.where(x >= hi, hi, x))


class TableStack:
    """A registry of lookup tables addressable as (group, row) pairs.

    ``add`` is idempotent per table object; ``evaluate`` interpolates a
    whole array of (group, row, slew, load) queries at once.  Designs
    characterized on the default grid land in a single group, which is
    the fast path; mixed-axis libraries fall back to one masked pass
    per group.
    """

    def __init__(self) -> None:
        self._groups: list[_TableGroup] = []
        self._group_of_axes: dict[tuple[bytes, bytes], int] = {}
        self._ref_of: dict[int, tuple[int, int]] = {}
        # Keeps registered tables alive so an id() can never be reused
        # by a different table while this stack holds its row.
        self._tables: list[LookupTable] = []

    def add(self, table: LookupTable) -> tuple[int, int]:
        """Register ``table`` (idempotent); returns its (group, row)."""
        ref = self._ref_of.get(id(table))
        if ref is not None:
            return ref
        axes = (table.slews_ps.tobytes(), table.loads_ff.tobytes())
        gid = self._group_of_axes.get(axes)
        if gid is None:
            gid = len(self._groups)
            self._groups.append(_TableGroup(table.slews_ps, table.loads_ff))
            self._group_of_axes[axes] = gid
        row = self._groups[gid].add(table.values)
        ref = (gid, row)
        self._ref_of[id(table)] = ref
        self._tables.append(table)
        return ref

    @property
    def single_group(self) -> bool:
        return len(self._groups) == 1

    def _eval_group(self, group: _TableGroup, rows: np.ndarray,
                    slews: np.ndarray, loads: np.ndarray) -> np.ndarray:
        sl, ld = group.slews, group.loads
        k, m = len(sl), len(ld)
        # Clamp, bisect_right - 1, cap at the last interior cell: the
        # scalar path's cell search.  A clamped value is at or past the
        # first axis point, so that cell is the number of interior
        # points at or below it (all of them for the last point, and
        # for NaN, which sorts last).
        s = _clamp(slews, sl[0], sl[-1])
        c = _clamp(loads, ld[0], ld[-1])
        i = group.slew_cuts.searchsorted(s, side="right")
        j = group.load_cuts.searchsorted(c, side="right")
        ts = (s - sl.take(i)) / group.slew_steps.take(i)
        tc = (c - ld.take(j)) / group.load_steps.take(j)
        # The cell's four corners, read from the flat stack at one
        # offset: (i, j), then one load column, one slew row, both on.
        at = rows * (k * m) + i * m + j
        v = group.flat
        uc = 1 - tc
        top = v.take(at) * uc + v[1:].take(at) * tc
        bottom = v[m:].take(at) * uc + v[m + 1:].take(at) * tc
        return top * (1 - ts) + bottom * ts

    def evaluate(self, gids, rows, slews, loads) -> np.ndarray:
        """Interpolate every lane; the four arguments broadcast to one
        query shape (a leading sample axis on the slews or loads only).

        Lanes may carry garbage rows (padding): the caller masks the
        result, and a padded lane's row must simply be in range (0 is
        always safe).
        """
        slews = np.asarray(slews, dtype=float)
        loads = np.asarray(loads, dtype=float)
        if self.single_group:
            return self._eval_group(self._groups[0], rows, slews, loads)
        shape = np.broadcast_shapes(np.shape(gids), np.shape(rows),
                                    slews.shape, loads.shape)
        gids, rows, slews, loads = (np.broadcast_to(a, shape)
                                    for a in (gids, rows, slews, loads))
        out = np.zeros(shape)
        for gid, group in enumerate(self._groups):
            mask = gids == gid
            if not mask.any():
                continue
            out[mask] = self._eval_group(
                group, rows[mask], slews[mask], loads[mask])
        return out
