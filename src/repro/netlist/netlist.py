"""Gate-level netlist: instances, nets, connectivity and validation."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Mapping

from ..cells import Library
from ..core.telemetry import current_tracer


@dataclass
class Instance:
    """One placed-or-placeable cell instance."""

    name: str
    master: str                       # cell master name in the library
    connections: dict[str, str] = field(default_factory=dict)  # pin -> net


@dataclass
class Net:
    """One logical net: a single driver and any number of sinks.

    The driver is either a primary input (``driver is None``) or an
    ``(instance_name, pin_name)`` pair; sinks are such pairs plus
    optionally a primary output.
    """

    name: str
    driver: tuple[str, str] | None = None
    sinks: list[tuple[str, str]] = field(default_factory=list)
    is_primary_input: bool = False
    is_primary_output: bool = False
    is_clock: bool = False

    @property
    def fanout(self) -> int:
        return len(self.sinks) + (1 if self.is_primary_output else 0)

    @property
    def degree(self) -> int:
        """Pin count of the net (driver + sinks)."""
        return self.fanout + (0 if self.is_primary_input else 1)


class Netlist:
    """A flat gate-level netlist bound to a cell library by name."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.instances: dict[str, Instance] = {}
        self.nets: dict[str, Net] = {}
        #: Free-form metadata attached by generators (e.g. the RISC-V
        #: generator records which nets carry the PC and register file).
        self.attributes: dict[str, object] = {}

    # -- construction -------------------------------------------------------
    def add_net(self, name: str, *, primary_input: bool = False,
                primary_output: bool = False, clock: bool = False) -> Net:
        if name in self.nets:
            net = self.nets[name]
            net.is_primary_input = net.is_primary_input or primary_input
            net.is_primary_output = net.is_primary_output or primary_output
            net.is_clock = net.is_clock or clock
            return net
        net = Net(name, is_primary_input=primary_input,
                  is_primary_output=primary_output, is_clock=clock)
        self.nets[name] = net
        return net

    def add_instance(self, name: str, master: str,
                     connections: Mapping[str, str]) -> Instance:
        """Add an instance; nets it names that do not exist yet are
        created plain, in pin order (as :meth:`add_net` would)."""
        if name in self.instances:
            raise ValueError(f"duplicate instance {name!r}")
        inst = Instance(name, master, dict(connections))
        self.instances[name] = inst
        nets = self.nets
        for net_name in inst.connections.values():
            if net_name not in nets:
                nets[net_name] = Net(net_name)
        return inst

    def bind(self, library: Library) -> None:
        """Resolve drivers/sinks from pin directions; validate connectivity.

        Must be called once after construction (and again if instances
        are re-mastered).  Raises on missing masters, unconnected pins,
        multiply-driven or undriven nets.  Each call counts one
        ``kernel.netlist.binds`` on the current tracer.
        """
        current_tracer().count("kernel.netlist.binds")
        for net in self.nets.values():
            net.driver = None
            net.sinks = []
        for inst in self.instances.values():
            master = library[inst.master]
            for pin in master.pins.values():
                net_name = inst.connections.get(pin.name)
                if net_name is None:
                    raise ValueError(
                        f"instance {inst.name} ({inst.master}): "
                        f"pin {pin.name} unconnected"
                    )
                net = self.nets[net_name]
                if pin.is_output:
                    if net.driver is not None or net.is_primary_input:
                        raise ValueError(f"net {net_name!r} multiply driven")
                    net.driver = (inst.name, pin.name)
                else:
                    net.sinks.append((inst.name, pin.name))
                    if pin.is_clock:
                        net.is_clock = True
        # Drop fully dangling nets (e.g. placeholder nets left behind by
        # rewiring passes like CTS), then validate drivers.
        dangling = [
            name for name, net in self.nets.items()
            if net.driver is None and not net.sinks
            and not net.is_primary_input and not net.is_primary_output
        ]
        for name in dangling:
            del self.nets[name]
        for net in self.nets.values():
            if net.driver is None and not net.is_primary_input:
                raise ValueError(f"net {net.name!r} has no driver")

    # -- queries ----------------------------------------------------------------
    @property
    def primary_inputs(self) -> list[Net]:
        return [n for n in self.nets.values() if n.is_primary_input]

    @property
    def primary_outputs(self) -> list[Net]:
        return [n for n in self.nets.values() if n.is_primary_output]

    def sequential_instances(self, library: Library) -> list[Instance]:
        return [i for i in self.instances.values()
                if library[i.master].is_sequential]

    def combinational_instances(self, library: Library) -> list[Instance]:
        return [i for i in self.instances.values()
                if not library[i.master].is_sequential]

    def cell_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for inst in self.instances.values():
            counts[inst.master] = counts.get(inst.master, 0) + 1
        return counts

    def total_cell_area_nm2(self, library: Library) -> float:
        # Added left to right: builtins.sum over floats is a compensated
        # sum on Python >= 3.12.
        total = 0.0
        for inst in self.instances.values():
            total += library[inst.master].area_nm2(library.tech)
        return total

    # -- topological traversal --------------------------------------------------
    def topological_order(self, library: Library) -> list[Instance]:
        """Combinational instances in dependency order.

        Sequential outputs and primary inputs are sources.  Raises
        ``ValueError`` on a combinational loop.
        """
        indegree: dict[str, int] = {}
        dependents: dict[str, list[str]] = {}
        for inst in self.instances.values():
            master = library[inst.master]
            if master.is_sequential:
                continue
            count = 0
            for pin in master.input_pins:
                net = self.nets[inst.connections[pin.name]]
                if net.driver is None:
                    continue
                drv_inst = self.instances[net.driver[0]]
                if library[drv_inst.master].is_sequential:
                    continue
                count += 1
                dependents.setdefault(drv_inst.name, []).append(inst.name)
            indegree[inst.name] = count

        ready = deque(sorted(n for n, d in indegree.items() if d == 0))
        order: list[Instance] = []
        while ready:
            name = ready.popleft()
            order.append(self.instances[name])
            for dep in dependents.get(name, ()):
                indegree[dep] -= 1
                if indegree[dep] == 0:
                    ready.append(dep)
        if len(order) != len(indegree):
            raise ValueError("combinational loop detected")
        return order

    # -- simulation (functional verification) --------------------------------
    def simulate(self, library: Library, inputs: Mapping[str, bool],
                 state: Mapping[str, bool] | None = None) -> dict[str, bool]:
        """Evaluate all combinational logic for one input/state vector.

        ``inputs`` maps primary-input net names to values; ``state`` maps
        sequential instance names to their current Q values.  Returns the
        value of every net.  Clock nets are not evaluated.
        """
        values: dict[str, bool] = {}
        for net in self.primary_inputs:
            if net.is_clock:
                continue
            if net.name not in inputs:
                raise KeyError(f"missing value for primary input {net.name!r}")
            values[net.name] = bool(inputs[net.name])
        state = state or {}
        for inst in self.sequential_instances(library):
            master = library[inst.master]
            outs = master.output_pins
            for out_pin in outs:
                # A flop's state is keyed by instance name; multi-output
                # sequential cells (hard macros) key per (inst, pin).
                key = inst.name if len(outs) == 1 else (inst.name, out_pin.name)
                values[inst.connections[out_pin.name]] = \
                    bool(state.get(key, False))

        for inst in self.topological_order(library):
            master = library[inst.master]
            fn = master.logic_fn
            if fn is None:
                raise ValueError(f"{master.name} has no logic function")
            pin_values = {
                p.name: values[inst.connections[p.name]]
                for p in master.input_pins
            }
            values[inst.connections[master.output.name]] = bool(fn(pin_values))
        return values

    def next_state(self, library: Library, inputs: Mapping[str, bool],
                   state: Mapping[str, bool] | None = None) -> dict[str, bool]:
        """One clock tick: the D values every flop would capture."""
        values = self.simulate(library, inputs, state)
        new_state = {}
        for inst in self.sequential_instances(library):
            d_net = inst.connections.get("D")
            if d_net is not None:
                new_state[inst.name] = values[d_net]
        return new_state

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (f"Netlist({self.name!r}, {len(self.instances)} instances, "
                f"{len(self.nets)} nets)")
