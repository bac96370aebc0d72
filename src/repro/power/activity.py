"""Switching-activity propagation through the logic network.

Vectorless power analysis normally assumes one flat activity factor;
this module does the standard better thing: propagate signal
probabilities and transition densities from the primary inputs through
each gate's boolean function (under the spatial-independence
approximation), giving per-net toggle rates that
:func:`repro.power.analyze_power` can consume.

For a gate with function ``f``:

* the output 1-probability is the weighted sum of ``f`` over input
  cubes, ``P(f=1) = sum over input vectors v of f(v) * prod p_i(v)``;
* the output transition density follows the Boolean-difference model
  of Najm: ``D(y) = sum_i P(df/dx_i) * D(x_i)``, where
  ``P(df/dx_i)`` is the probability the gate is sensitized to input i.

Flop outputs toggle with the probability their D input differs from
their current value (two-state Markov steady state).
"""

from __future__ import annotations

from itertools import product as iter_product

from ..cells import Library
from ..netlist import Netlist

#: Default signal probability and transition density at primary inputs.
DEFAULT_INPUT_PROBABILITY = 0.5
DEFAULT_INPUT_DENSITY = 0.25


def propagate_activities(netlist: Netlist, library: Library,
                         input_probability: float = DEFAULT_INPUT_PROBABILITY,
                         input_density: float = DEFAULT_INPUT_DENSITY,
                         clock: str = "clk") -> dict[str, float]:
    """Per-net transition densities (toggles per clock cycle).

    Returns a map usable as the ``activities`` argument of
    :func:`repro.power.analyze_power`.  The clock net and the clock
    tree keep their fixed 2-toggles-per-cycle rate there, so they are
    not included here.
    """
    probability: dict[str, float] = {}
    density: dict[str, float] = {}

    for net in netlist.nets.values():
        if net.is_primary_input and not net.is_clock:
            probability[net.name] = input_probability
            density[net.name] = input_density

    # Sequential outputs: steady-state Q probability equals D's, and Q
    # toggles when D differs from Q: D(y) = 2 p (1 - p) under
    # independence.  D's probability is not known before propagation,
    # so seed every output of every sequential cell (a hard macro has
    # many) with the input probability, and refine the flops below.
    sequential = netlist.sequential_instances(library)
    for inst in sequential:
        for pin in library[inst.master].output_pins:
            out_net = inst.connections.get(pin.name)
            if out_net is not None:
                probability[out_net] = input_probability
                density[out_net] = \
                    2 * input_probability * (1 - input_probability)

    def propagate_once() -> None:
        for inst in netlist.topological_order(library):
            master = library[inst.master]
            fn = master.logic_fn
            outs = master.output_pins
            if not outs or fn is None:
                continue
            out_net = inst.connections[outs[0].name]
            in_pins = [p.name for p in master.input_pins]
            if not in_pins:  # tie cells
                probability[out_net] = 1.0 if master.function == "TIEHI" else 0.0
                density[out_net] = 0.0
                continue
            p_in = [probability.get(inst.connections[p], 0.5)
                    for p in in_pins]
            d_in = [density.get(inst.connections[p], 0.0) for p in in_pins]

            p_out = 0.0
            sensitization = [0.0] * len(in_pins)
            for vector in iter_product((False, True), repeat=len(in_pins)):
                weight = 1.0
                for bit, p in zip(vector, p_in):
                    weight *= p if bit else (1.0 - p)
                if weight == 0.0:
                    continue
                values = dict(zip(in_pins, vector))
                out = bool(fn(values))
                if out:
                    p_out += weight
                # Boolean difference per input: flip input i and see if
                # the output flips.
                for i, name in enumerate(in_pins):
                    flipped = dict(values)
                    flipped[name] = not flipped[name]
                    if bool(fn(flipped)) != out:
                        sensitization[i] += weight
            probability[out_net] = p_out
            # Added left to right: builtins.sum over floats is a
            # compensated sum on Python >= 3.12.
            toggles = 0.0
            for s, d in zip(sensitization, d_in):
                toggles += s * d
            density[out_net] = min(2.0, toggles)

    propagate_once()
    # Refine the flop outputs now that D probabilities are known, then
    # re-propagate so downstream logic sees the refined values.  Cells
    # without a D pin (hard macros) keep their seeded outputs.
    for inst in sequential:
        if "D" not in inst.connections:
            continue
        q_net = inst.connections[library[inst.master].output.name]
        d_prob = probability.get(inst.connections["D"], input_probability)
        probability[q_net] = d_prob
        density[q_net] = 2 * d_prob * (1 - d_prob)
    propagate_once()

    density.pop(clock, None)
    return density
