"""RC trees and Elmore delay computation.

:meth:`RCTree.elmore_ps` solves one tree (single-net extraction);
:func:`elmore_forest` is the numpy kernel that evaluates *all* of a
design's RC trees in one level-ordered batch (whole-design
extraction).  Both accumulate each node's subtree capacitance over its
children in BFS-discovery order and each delay as ``delay[parent] +
res * subtree_cap`` — the identical IEEE-754 operations in the
identical order — so the two are bit-equal, which
``tests/test_kernel_equivalence.py`` pins.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Hashable

import numpy as np


@dataclass
class RCTree:
    """A grounded-capacitance RC network rooted at the driver node.

    Built as a graph; loops (overlapping route segments) are tolerated —
    Elmore evaluation uses a BFS spanning tree from the root, which is
    the standard conservative treatment.
    """

    root: Hashable
    cap_ff: dict[Hashable, float] = field(default_factory=dict)
    adj: dict[Hashable, list[tuple[Hashable, float]]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.cap_ff.setdefault(self.root, 0.0)
        self.adj.setdefault(self.root, [])

    def add_node(self, node: Hashable, cap_ff: float = 0.0) -> None:
        self.cap_ff[node] = self.cap_ff.get(node, 0.0) + cap_ff
        self.adj.setdefault(node, [])

    def add_cap(self, node: Hashable, cap_ff: float) -> None:
        self.add_node(node, cap_ff)

    def add_edge(self, a: Hashable, b: Hashable, res_kohm: float) -> None:
        self.add_node(a)
        self.add_node(b)
        self.adj[a].append((b, res_kohm))
        self.adj[b].append((a, res_kohm))

    @property
    def total_cap_ff(self) -> float:
        return sum(self.cap_ff.values())

    def spanning_tree(self) -> dict[Hashable, tuple[Hashable, float]]:
        """BFS parents: node -> (parent, edge resistance)."""
        parents: dict[Hashable, tuple[Hashable, float]] = {}
        seen = {self.root}
        queue = deque([self.root])
        while queue:
            node = queue.popleft()
            for neighbor, res in self.adj[node]:
                if neighbor in seen:
                    continue
                seen.add(neighbor)
                parents[neighbor] = (node, res)
                queue.append(neighbor)
        return parents

    def elmore_ps(self) -> dict[Hashable, float]:
        """Elmore delay (ps) from the root to every reachable node."""
        parents = self.spanning_tree()
        children: dict[Hashable, list[Hashable]] = {}
        for node, (parent, _res) in parents.items():
            children.setdefault(parent, []).append(node)

        # Post-order subtree capacitance.
        subtree_cap: dict[Hashable, float] = {}
        order: list[Hashable] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            order.append(node)
            stack.extend(children.get(node, ()))
        for node in reversed(order):
            cap = self.cap_ff.get(node, 0.0)
            for child in children.get(node, ()):
                cap += subtree_cap[child]
            subtree_cap[node] = cap

        # Pre-order delay accumulation.
        delay: dict[Hashable, float] = {self.root: 0.0}
        for node in order:
            for child in children.get(node, ()):
                _parent, res = parents[child]
                delay[child] = delay[node] + res * subtree_cap[child]
        return delay

    def is_connected(self, node: Hashable) -> bool:
        if node == self.root:
            return True
        return node in self.spanning_tree()


def elmore_forest(trees: list["RCTree"],
                  wanted: list[list[Hashable]] | None = None,
                  ) -> list[dict[Hashable, float]]:
    """Elmore delays for many trees at once (the numpy kernel).

    Flattens every tree's BFS spanning forest into level-indexed
    arrays, then runs one bottom-up subtree-capacitance pass and one
    top-down delay pass per depth level — each level a handful of
    vectorized scatter/gather operations across *all* trees.  Within a
    level, ``np.add.at`` applies updates in index order, which is BFS
    discovery order, i.e. exactly the per-parent child order the scalar
    :meth:`RCTree.elmore_ps` accumulates in — so results are bit-equal.

    Returns one ``{node: delay_ps}`` dict per input tree, covering the
    nodes reachable from each root (same contract as ``elmore_ps``).
    With ``wanted`` (one node list per tree), each dict is restricted
    to the listed nodes that are reachable — extraction only ever reads
    the sink taps, and skipping the full dict build is most of the
    kernel's win on small nets.
    """
    index_per_tree: list[dict[Hashable, int]] = []
    caps: list[float] = []
    par: list[int] = []
    res: list[float] = []
    depth: list[int] = []
    for tree in trees:
        base = len(caps)
        parents = tree.spanning_tree()
        nodes = [tree.root, *parents]    # BFS discovery order
        index = {node: base + i for i, node in enumerate(nodes)}
        index_per_tree.append(index)
        caps.append(tree.cap_ff.get(tree.root, 0.0))
        par.append(-1)
        res.append(0.0)
        depth.append(0)
        cap_ff = tree.cap_ff
        for node, (parent, edge_res) in parents.items():
            pi = index[parent]
            caps.append(cap_ff.get(node, 0.0))
            par.append(pi)
            res.append(edge_res)
            depth.append(depth[pi] + 1)

    cap_arr = np.array(caps, dtype=float)
    par_arr = np.array(par, dtype=np.intp)
    res_arr = np.array(res, dtype=float)
    dep_arr = np.array(depth, dtype=np.intp)
    max_depth = int(dep_arr.max()) if len(dep_arr) else 0
    levels = [np.flatnonzero(dep_arr == d) for d in range(max_depth + 1)]

    # Bottom-up: subtree capacitance (own cap, then children in BFS
    # discovery order — np.add.at preserves that order per parent).
    sub = cap_arr.copy()
    for d in range(max_depth, 0, -1):
        idx = levels[d]
        np.add.at(sub, par_arr[idx], sub[idx])

    # Top-down: delay[child] = delay[parent] + res * subtree_cap[child].
    delay = np.zeros(len(cap_arr))
    for d in range(1, max_depth + 1):
        idx = levels[d]
        delay[idx] = delay[par_arr[idx]] + res_arr[idx] * sub[idx]

    out: list[dict[Hashable, float]] = []
    if wanted is not None:
        for index, want in zip(index_per_tree, wanted):
            taps: dict[Hashable, float] = {}
            for node in want:
                i = index.get(node)
                if i is not None:
                    taps[node] = float(delay[i])
            out.append(taps)
        return out
    base = 0
    for index in index_per_tree:
        chunk = delay[base:base + len(index)].tolist()
        out.append(dict(zip(index, chunk)))
        base += len(index)
    return out


@dataclass(frozen=True)
class NetParasitics:
    """Extraction summary for one net."""

    net: str
    wire_cap_ff: float
    wire_res_kohm: float
    pin_cap_ff: float
    #: Wire-only Elmore delay to each sink, ps.
    sink_elmore_ps: dict[tuple[str, str], float]
    #: Total wirelength (all sides), nm.
    wirelength_nm: float
    via_count: int = 0
    #: Wirelength routed on backside (BM*) layers, nm.  Zero for
    #: single-sided nets and for every CFET net; the variation engine
    #: uses it to weight overlay-induced RC perturbations by how much
    #: of the net actually lives on the second patterned side.
    back_wirelength_nm: float = 0.0

    @property
    def total_cap_ff(self) -> float:
        """Load the driver sees: wire plus sink pin capacitance."""
        return self.wire_cap_ff + self.pin_cap_ff

    @property
    def back_fraction(self) -> float:
        """Share of this net's wirelength on backside layers, in [0, 1]."""
        if self.wirelength_nm <= 0:
            return 0.0
        return min(self.back_wirelength_nm / self.wirelength_nm, 1.0)

    def elmore_to(self, inst: str, pin: str) -> float:
        return self.sink_elmore_ps.get((inst, pin), 0.0)
