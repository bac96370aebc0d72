"""Scalar oracle for power analysis's switching and internal sums."""

from __future__ import annotations

from repro.cells import VDD_V
from repro.power.power import CLOCK_ACTIVITY, _clock_cone


def power_sums(netlist, library, extraction, wire_factors, freq_hz,
               activity, clock, activities):
    """Per-net and per-instance loops, one scalar term at a time.

    Same signature and result as ``repro.power.power._power_sums``:
    each row scales wire caps by its factors and sums at its frequency.
    """
    clock_nets = _clock_cone(netlist, library, clock)
    net_id = {name: i for i, name in enumerate(netlist.nets)}

    def toggle_rate(net_name):
        if net_name in clock_nets:
            return CLOCK_ACTIVITY
        return activities.get(net_name, activity)

    switching, internal = [], []
    leakage_w = 0.0
    for r, freq in enumerate(freq_hz.tolist()):
        factors = None if wire_factors is None else wire_factors[r].tolist()

        def cap_ff(net_name):
            p = extraction[net_name]
            if factors is None:
                return p.total_cap_ff
            return p.wire_cap_ff * factors[net_id[net_name]] + p.pin_cap_ff

        switching_w = 0.0
        for net_name in netlist.nets:
            if net_name not in extraction:
                continue
            cap_f = cap_ff(net_name) * 1e-15
            # E = C * V^2 / 2 per transition.
            switching_w += 0.5 * cap_f * VDD_V * VDD_V \
                * toggle_rate(net_name) * freq

        internal_w = 0.0
        leakage_w = 0.0
        for inst in netlist.instances.values():
            master = library[inst.master]
            if master.power is None:
                continue
            leakage_w += master.power.leakage_nw * 1e-9
            out_pins = master.output_pins
            if not out_pins:
                continue
            out_net = inst.connections.get(out_pins[0].name)
            load_ff = cap_ff(out_net) \
                if out_net and out_net in extraction else 0.0
            if master.is_sequential:
                toggles = activities.get(out_net, activity)
            else:
                toggles = toggle_rate(out_net) if out_net else activity
            energy_fj = master.power.transition_energy_fj(20.0, load_ff) / 2.0
            internal_w += energy_fj * 1e-15 * toggles * freq
            if master.is_sequential:
                internal_w += 0.15 * energy_fj * 1e-15 * CLOCK_ACTIVITY \
                    * freq
        switching.append(switching_w)
        internal.append(internal_w)
    return switching, internal, leakage_w
