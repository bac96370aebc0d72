"""Critical-path reporting: per-stage timing breakdowns.

The PrimeTime-style ``report_timing`` view of the setup analysis: for
the worst endpoints, walk the arrival provenance and print each stage's
cell arc and wire contribution.  Used by the examples and by engineers
debugging why one architecture's achieved frequency differs.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cells import Library
from ..extract import Extraction
from ..netlist import Netlist
from .sta import PRIMARY_INPUT_SLEW_PS, analyze_timing


@dataclass(frozen=True)
class PathStage:
    """One hop of a reported path."""

    instance: str
    cell: str
    from_pin: str
    net: str
    cell_delay_ps: float
    wire_delay_ps: float
    load_ff: float

    @property
    def total_ps(self) -> float:
        return self.cell_delay_ps + self.wire_delay_ps


@dataclass(frozen=True)
class TimingPath:
    """The worst path to one endpoint."""

    endpoint: str
    slack_ps: float
    arrival_ps: float
    stages: tuple[PathStage, ...] = ()

    # Added left to right from 0.0, never with builtins.sum (compensated
    # over floats on Python >= 3.12).
    @property
    def cell_delay_ps(self) -> float:
        total = 0.0
        for s in self.stages:
            total += s.cell_delay_ps
        return total

    @property
    def wire_delay_ps(self) -> float:
        total = 0.0
        for s in self.stages:
            total += s.wire_delay_ps
        return total


def report_critical_path(netlist: Netlist, library: Library,
                         extraction: Extraction, period_ps: float,
                         clock: str = "clk") -> TimingPath:
    """Expand the setup run's worst path into per-stage contributions.

    Stage delays are re-derived with worst-edge lookups along the traced
    path, so the sum approximates (but does not exactly equal) the
    edge-aware arrival.
    """
    report = analyze_timing(netlist, library, extraction, period_ps, clock)
    stages: list[PathStage] = []

    # critical_path interleaves net names and "instance/pin" hops; both
    # may contain hierarchy slashes, so classify by instance lookup.
    slew = PRIMARY_INPUT_SLEW_PS
    for hop in report.critical_path:
        if "/" not in hop:
            continue
        inst_name, from_pin = hop.rsplit("/", 1)
        if inst_name not in netlist.instances:
            continue
        if from_pin == "CK":
            continue  # the launch flop is not a combinational stage
        inst = netlist.instances[inst_name]
        master = library[inst.master]
        out_net = inst.connections[master.output.name]
        load = extraction[out_net].total_cap_ff \
            if out_net in extraction else 0.0
        try:
            arc = master.arc(from_pin, master.output.name)
        except KeyError:
            continue
        cell_delay = arc.worst_delay(slew, load)
        slew = max(arc.transition(slew, load, True),
                   arc.transition(slew, load, False))
        in_net = inst.connections.get(from_pin, "")
        wire = 0.0
        if in_net in extraction:
            wire = extraction[in_net].elmore_to(inst_name, from_pin)
        stages.append(PathStage(
            instance=inst_name,
            cell=inst.master,
            from_pin=from_pin,
            net=out_net,
            cell_delay_ps=cell_delay,
            wire_delay_ps=wire,
            load_ff=load,
        ))

    return TimingPath(
        endpoint=report.worst_endpoint,
        slack_ps=report.wns_ps,
        arrival_ps=report.worst_arrival_ps,
        stages=tuple(stages),
    )


def format_path(path: TimingPath) -> str:
    """Render a path report as text."""
    lines = [
        f"endpoint: {path.endpoint}  slack: {path.slack_ps:+.1f} ps  "
        f"arrival: {path.arrival_ps:.1f} ps",
        f"{'instance':<28}{'cell':<10}{'pin':<6}"
        f"{'cell ps':>9}{'wire ps':>9}{'load fF':>9}",
    ]
    for stage in path.stages:
        lines.append(
            f"{stage.instance:<28}{stage.cell:<10}{stage.from_pin:<6}"
            f"{stage.cell_delay_ps:>9.2f}{stage.wire_delay_ps:>9.2f}"
            f"{stage.load_ff:>9.2f}"
        )
    lines.append(
        f"{'total':<44}{path.cell_delay_ps:>9.2f}"
        f"{path.wire_delay_ps:>9.2f}"
    )
    return "\n".join(lines)
