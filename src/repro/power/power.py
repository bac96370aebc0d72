"""Power analysis: switching, internal and leakage power.

Standard activity-based analysis at a given operating frequency:

* **switching** power charges every net's extracted capacitance
  (wire + sink pins) at its toggle rate,
* **internal** power spends each cell's characterized per-transition
  energy (short-circuit + internal-node charging),
* **leakage** sums the characterized per-cell leakage (identical
  between FFET and CFET — Table I).

Clock nets toggle twice per cycle; data nets use a default activity
factor, as a vectorless commercial flow would assume.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cells import VDD_V, Library
from ..extract import Extraction
from ..netlist import Netlist
from ..sta.nldm import TableStack

#: Data-net toggles per clock cycle (vectorless default).
DEFAULT_ACTIVITY = 0.25
#: Clock nets toggle twice per cycle.
CLOCK_ACTIVITY = 2.0


@dataclass(frozen=True)
class PowerReport:
    """Block power at one operating point."""

    frequency_ghz: float
    switching_mw: float
    internal_mw: float
    leakage_mw: float

    @property
    def dynamic_mw(self) -> float:
        return self.switching_mw + self.internal_mw

    @property
    def total_mw(self) -> float:
        return self.dynamic_mw + self.leakage_mw

    @property
    def efficiency_ghz_per_mw(self) -> float:
        """Frequency per unit power — the Fig. 13 power-efficiency metric."""
        return self.frequency_ghz / self.total_mw


def analyze_power(netlist: Netlist, library: Library, extraction: Extraction,
                  frequency_ghz: float,
                  activity: float = DEFAULT_ACTIVITY,
                  clock: str = "clk",
                  activities: dict[str, float] | None = None) -> PowerReport:
    """Compute block power at ``frequency_ghz``.

    The one-row case of :func:`analyze_power_rows`.  Inside a flow the
    ``power.*`` gauges come from the ``power`` stage, not from here.
    ``activities`` optionally carries per-net toggle
    rates (e.g. from :func:`repro.power.propagate_activities`); nets
    without an entry fall back to the flat ``activity`` factor.
    """
    return analyze_power_rows(netlist, library, extraction, None,
                              [frequency_ghz], activity, clock,
                              activities)[0]


def analyze_power_rows(netlist: Netlist, library: Library,
                       extraction: Extraction, wire_factors,
                       frequencies_ghz,
                       activity: float = DEFAULT_ACTIVITY,
                       clock: str = "clk",
                       activities: dict[str, float] | None = None
                       ) -> list[PowerReport]:
    """Block power of R perturbed views of one extraction, one pass.

    Row r scales every net's wire cap by ``wire_factors[r, net]`` (an
    (R, nets) array, nets in ``netlist.nets`` order, as for
    :func:`~repro.sta.analyze_timing_rows`; ``None`` is one unscaled
    row) and runs at ``frequencies_ghz[r]``.  Returns one report per row.
    """
    if any(f <= 0 for f in frequencies_ghz):
        raise ValueError("frequency must be positive")
    freq_hz = np.asarray(frequencies_ghz, dtype=float) * 1e9
    switching_w, internal_w, leakage_w = _power_sums(
        netlist, library, extraction, wire_factors, freq_hz,
        activity, clock, activities or {})
    return [PowerReport(frequency_ghz=frequency_ghz,
                        switching_mw=float(switching_w[r]) * 1e3,
                        internal_mw=float(internal_w[r]) * 1e3,
                        leakage_mw=leakage_w * 1e3)
            for r, frequency_ghz in enumerate(frequencies_ghz)]


def _running_sums(terms: np.ndarray) -> np.ndarray:
    """Each row's terms added left to right from 0.0, as a scalar loop
    adds them (``np.sum`` adds pairwise and would move the bits)."""
    acc = np.zeros((terms.shape[0], terms.shape[1] + 1))
    acc[:, 1:] = terms
    return np.add.accumulate(acc, axis=1)[:, -1]


def _power_sums(netlist: Netlist, library: Library, extraction: Extraction,
                wire_factors, freq_hz: np.ndarray, activity: float,
                clock: str, activities: dict[str, float]):
    """(switching W per row, internal W per row, leakage W).

    Switching charges every extracted net's capacitance at its toggle
    rate; internal power spends each cell's per-transition energy, read
    through a :class:`~repro.sta.nldm.TableStack` at the row's load.
    Each master's leakage, output pin, sequential flag and energy tables
    are read once, however many instances it has.  Terms are summed in
    netlist order, as ``tests/reference/power.py`` does one at a time.
    """
    clock_nets = _clock_cone(netlist, library, clock)
    names = list(netlist.nets)
    # Each net's toggle rate, and a last slot for an output on no net:
    # the clock cone toggles twice per cycle, a flop's Q (``data``) and
    # every other net at its activity.
    data = np.array([activities.get(name, activity) for name in names]
                    + [activity], dtype=float)
    toggles = np.where([name in clock_nets for name in names] + [False],
                       CLOCK_ACTIVITY, data)
    loads = extraction.loads_ff(names, wire_factors)
    fhz = freq_hz[:, None]

    extracted = np.flatnonzero([name in extraction for name in names])
    cap_f = loads[:, extracted] * 1e-15
    # E = C * V^2 / 2 per transition.
    switching = _running_sums(
        0.5 * cap_f * VDD_V * VDD_V * toggles[extracted] * fhz)

    # Each master once, in order of first use: its leakage W, the
    # output pin its energy loads (None without power data or an
    # output), whether it is sequential, and its energy tables' refs.
    kind: dict[str, int] = {}
    insts = list(netlist.instances.values())
    code = [kind.setdefault(inst.master, len(kind)) for inst in insts]
    stack = TableStack()
    leak, out_pin, seq, tables = [], [], [], []
    for name in kind:
        master = library[name]
        power = master.power
        outs = master.output_pins if power is not None else []
        leak.append(power.leakage_nw * 1e-9 if power is not None else 0.0)
        out_pin.append(outs[0].name if outs else None)
        seq.append(master.is_sequential)
        tables.append(stack.add(power.rise_energy)
                      + stack.add(power.fall_energy) if outs
                      else (0, 0, 0, 0))
    # Leakage adds per instance, in netlist order.  A cell without power
    # data adds +0.0, which leaves a sum that starts at +0.0 unchanged.
    of_inst = np.array(code, dtype=np.intp)
    leakage_w = float(_running_sums(np.array(leak)[None, of_inst])[0])

    driving = [k for k, c in enumerate(code) if out_pin[c] is not None]
    net_id = {name: i for i, name in enumerate(names)}
    ids = np.array([net_id.get(insts[k].connections.get(out_pin[code[k]]),
                               -1) for k in driving], dtype=np.intp)
    of_inst = of_inst[driving]
    sequential = np.array(seq)[of_inst]
    refs = np.array(tables, dtype=np.intp).reshape(-1, 4)[of_inst].T
    load = np.where(ids >= 0, loads[:, ids], 0.0)
    slew = np.full(load.shape, 20.0)
    # Transition energy covers one rise + one fall: halve per toggle.
    energy_fj = (stack.evaluate(refs[0], refs[1], slew, load)
                 + stack.evaluate(refs[2], refs[3], slew, load)) / 2.0
    rates = np.where(sequential, data[ids], toggles[ids])
    data_w = energy_fj * 1e-15 * rates * fhz
    # Clock pin switches every cycle regardless of data.
    clock_pin = np.where(sequential,
                         0.15 * energy_fj * 1e-15 * CLOCK_ACTIVITY * fhz,
                         0.0)
    internal = _running_sums(
        np.stack([data_w, clock_pin], axis=2).reshape(len(fhz), -1))
    return switching, internal, leakage_w


def _clock_cone(netlist: Netlist, library: Library, clock: str) -> set[str]:
    """All nets in the clock distribution (root plus buffered subnets)."""
    if clock not in netlist.nets:
        return set()
    cone = {clock}
    frontier = [clock]
    while frontier:
        net_name = frontier.pop()
        for inst_name, _pin in netlist.nets[net_name].sinks:
            inst = netlist.instances[inst_name]
            master = library[inst.master]
            if master.is_sequential:
                continue
            out_net = inst.connections.get(master.output.name)
            if out_net and out_net not in cone:
                cone.add(out_net)
                frontier.append(out_net)
    return cone
