"""Stacked NLDM lookup-table interpolation kernel.

:class:`~repro.cells.timing.LookupTable` answers one scalar bilinear
lookup at a time; STA under the wireload sizing loop asks for hundreds
of thousands of them.  :class:`TableStack` registers every distinct
table once, groups tables that share the same (slew, load) axes, and
stacks each group's value grids into one ``(n_tables, k, m)`` array so
a whole level of timing-arc candidates evaluates in a handful of numpy
operations.

Bit-compatibility contract: :meth:`TableStack.evaluate` performs the
*same* IEEE-754 operations in the *same* order as
``LookupTable.__call__`` — clamp to the axis ends, ``bisect_right``-
style cell search (``np.searchsorted(..., side="right")``), then the
identical two-step bilinear formula — so a stacked evaluation returns
exactly the scalar path's bits for every lane.  The equivalence is
pinned by hypothesis property tests in
``tests/test_kernel_equivalence.py``.
"""

from __future__ import annotations

import numpy as np

from ..cells.timing import LookupTable


class _TableGroup:
    """Tables sharing one (slews, loads) axis pair, stacked on demand."""

    __slots__ = ("slews", "loads", "values", "_stacked")

    def __init__(self, slews: np.ndarray, loads: np.ndarray) -> None:
        self.slews = slews
        self.loads = loads
        self.values: list[np.ndarray] = []
        self._stacked: np.ndarray | None = None

    def add(self, values: np.ndarray) -> int:
        self.values.append(values)
        self._stacked = None
        return len(self.values) - 1

    @property
    def stacked(self) -> np.ndarray:
        if self._stacked is None:
            self._stacked = np.stack(self.values)
        return self._stacked


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
        # Clamped cell search — mirrors the scalar path exactly:
        # clamp, bisect_right - 1, cap at the last interior cell.
        s = np.clip(slews, sl[0], sl[-1])
        c = np.clip(loads, ld[0], ld[-1])
        i = np.searchsorted(sl, s, side="right") - 1
        np.clip(i, 0, len(sl) - 2, out=i)
        j = np.searchsorted(ld, c, side="right") - 1
        np.clip(j, 0, len(ld) - 2, out=j)
        s0, s1 = sl[i], sl[i + 1]
        c0, c1 = ld[j], ld[j + 1]
        ts = (s - s0) / (s1 - s0)
        tc = (c - c0) / (c1 - c0)
        v = group.stacked
        top = v[rows, i, j] * (1 - tc) + v[rows, i, j + 1] * tc
        bottom = v[rows, i + 1, j] * (1 - tc) + v[rows, i + 1, j + 1] * tc
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
