"""Simulation-based equivalence checking between two netlists.

Used to validate netlist transformations (optimization passes, scan
insertion in functional mode, bridging insertion): both designs are
driven with the same random input/state vectors and their primary
outputs and next-states compared.  Random simulation is not a proof,
but with a few hundred vectors it reliably catches transformation bugs
in practice — and it needs nothing but the boolean functions the cell
library already carries.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..cells import Library
from .netlist import Netlist


@dataclass(frozen=True)
class EquivalenceReport:
    """Outcome of one equivalence run."""

    vectors: int
    mismatches: tuple[str, ...] = ()

    @property
    def equivalent(self) -> bool:
        return not self.mismatches


def _comparable_outputs(a: Netlist, b: Netlist) -> list[str]:
    outs_a = {n.name for n in a.primary_outputs}
    outs_b = {n.name for n in b.primary_outputs}
    return sorted(outs_a & outs_b)


def check_equivalence(a: Netlist, b: Netlist, library: Library,
                      vectors: int = 64, seed: int = 0,
                      extra_inputs: dict[str, bool] | None = None
                      ) -> EquivalenceReport:
    """Compare two netlists on random vectors.

    Both netlists must share primary input names (inputs present in
    only one design get values from ``extra_inputs`` or False) and are
    compared on their common primary outputs and on the next-state of
    flops with matching instance names.
    """
    rng = random.Random(seed)
    inputs_a = {n.name for n in a.primary_inputs if not n.is_clock}
    inputs_b = {n.name for n in b.primary_inputs if not n.is_clock}
    all_inputs = sorted(inputs_a | inputs_b)
    outputs = _comparable_outputs(a, b)
    flops_a = {i.name for i in a.sequential_instances(library)}
    flops_b = {i.name for i in b.sequential_instances(library)}
    shared_flops = sorted(flops_a & flops_b)

    mismatches: list[str] = []
    extra_inputs = extra_inputs or {}
    for _vector in range(vectors):
        stimulus = {
            name: extra_inputs.get(name, rng.random() < 0.5)
            for name in all_inputs
        }
        state = {name: rng.random() < 0.5 for name in shared_flops}
        state_a = dict(state)
        state_a.update({f: rng.random() < 0.5 for f in flops_a - flops_b})
        state_b = dict(state)
        state_b.update({f: rng.random() < 0.5 for f in flops_b - flops_a})

        values_a = a.simulate(library, stimulus, state_a)
        values_b = b.simulate(library, stimulus, state_b)
        for out in outputs:
            if values_a[out] != values_b[out]:
                mismatches.append(f"output {out}")
        next_a = a.next_state(library, stimulus, state_a)
        next_b = b.next_state(library, stimulus, state_b)
        for flop in shared_flops:
            if next_a[flop] != next_b[flop]:
                mismatches.append(f"flop {flop}")
        if mismatches:
            break
    return EquivalenceReport(vectors=vectors,
                             mismatches=tuple(sorted(set(mismatches))))
