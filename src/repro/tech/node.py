"""Technology nodes: 3.5T FFET and 4T CFET on the virtual 5 nm node.

A :class:`TechNode` bundles the stackup, cell geometry, routing-layer
configuration and device parameters that the rest of the framework
consumes.  The two factories :func:`make_ffet_node` and
:func:`make_cfet_node` encode the architectural differences the paper
describes:

* cell height 3.5T vs 4T (1T = one M2 pitch = 30 nm),
* FFET pins may live on both wafer sides; CFET pins are frontside-only,
* FFET supports backside signal routing (BM1..BM12); the CFET backside
  only carries the PDN (BM1/BM2),
* CFET intra-cell routing needs supervias, giving it larger intra-cell
  parasitics (Section II.B) — the source of the Table I deltas,
* FFET has the Split Gate, which shrinks MUX/DFF-class cells.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .layers import Side
from .rules import DesignRules
from .stackup import Stackup, build_stackup


@dataclass(frozen=True)
class DeviceParams:
    """Transistor and intra-cell parasitic parameters for characterization.

    The intrinsic transistor (two-fin, same active footprint in both
    technologies per Section IV) is identical; only the intra-cell
    interconnect parasitics differ between architectures.
    """

    #: Channel resistance of a unit-drive (D1) two-fin device, kOhm.
    drive_resistance_kohm: float = 5.0
    #: Gate capacitance of one unit-drive input, fF.
    gate_cap_ff: float = 0.25
    #: Diffusion (drain) capacitance of one unit-drive output, fF.
    drain_cap_ff: float = 0.15
    #: Leakage power of a unit-drive device, nW.
    leakage_nw: float = 1.2
    #: Multiplier on intra-cell wiring capacitance (CFET supervias = 1.0).
    intra_cap_factor: float = 1.0
    #: Multiplier on intra-cell wiring resistance.
    intra_res_factor: float = 1.0
    #: Extra series resistance of a supervia on internal nets, kOhm.
    supervia_res_kohm: float = 0.0
    #: Baseline intra-cell wire capacitance per CPP of cell width, fF.
    intra_cap_per_cpp_ff: float = 0.055
    #: Baseline intra-cell wire resistance per CPP of cell width, kOhm.
    intra_res_per_cpp_kohm: float = 0.065


@dataclass(frozen=True)
class TechNode:
    """A complete technology description consumed by the whole flow."""

    name: str
    arch: str  # "ffet" | "cfet"
    stackup: Stackup
    cell_height_tracks: float
    device: DeviceParams
    rules: DesignRules = field(default_factory=DesignRules)
    #: Highest frontside metal level used for signal routing (FMn).
    max_front_metal: int = 12
    #: Highest backside metal level used for signal routing (BMn);
    #: 0 disables backside signal routing entirely.
    max_back_metal: int = 0
    #: Number of M0 signal tracks available per side for cell pins.
    m0_signal_tracks_per_side: int = 3
    #: True when standard cells may place pins on the wafer backside.
    dual_sided_pins: bool = False
    #: True when the Split Gate construct is available (FFET only).
    has_split_gate: bool = False

    # -- geometry ----------------------------------------------------------
    @property
    def cpp_nm(self) -> float:
        return self.rules.cpp_nm

    @property
    def track_pitch_nm(self) -> float:
        return self.rules.track_pitch_nm

    @property
    def cell_height_nm(self) -> float:
        return self.cell_height_tracks * self.track_pitch_nm

    @property
    def site_area_nm2(self) -> float:
        """Area of one placement site (1 CPP x cell height)."""
        return self.cpp_nm * self.cell_height_nm

    # -- routing configuration ----------------------------------------------
    @property
    def routing_layer_count(self) -> tuple[int, int]:
        """(frontside, backside) signal routing layer counts."""
        front = len(self.stackup.routing_layers(Side.FRONT, self.max_front_metal))
        back = 0
        if self.max_back_metal > 0:
            back = len(self.stackup.routing_layers(Side.BACK, self.max_back_metal))
        return front, back

    @property
    def uses_backside_signals(self) -> bool:
        return self.max_back_metal > 0

    def routing_layers(self, side: Side):
        """Routable layers on ``side`` honouring the configured limits."""
        if side is Side.FRONT:
            return self.stackup.routing_layers(side, self.max_front_metal)
        if not self.uses_backside_signals:
            return []
        return self.stackup.routing_layers(side, self.max_back_metal)

    def with_routing_layers(self, front: int, back: int = 0) -> "TechNode":
        """A copy of this node routed with FM1..FM<front> / BM1..BM<back>.

        Raises ``ValueError`` when the request exceeds the stackup or asks
        for backside signal routing in a technology without dual-sided
        support.
        """
        if front < 1:
            raise ValueError("at least one frontside routing layer required")
        available_front = self.stackup.routing_layers(Side.FRONT)
        max_front = max(layer.index for layer in available_front)
        if front > max_front:
            raise ValueError(f"frontside supports at most FM{max_front}")
        if back > 0:
            if not self.dual_sided_pins:
                raise ValueError(f"{self.name} does not support backside signals")
            available_back = self.stackup.routing_layers(Side.BACK)
            max_back = max(layer.index for layer in available_back)
            if back > max_back:
                raise ValueError(f"backside supports at most BM{max_back}")
        label = f"FM{front}" + (f"BM{back}" if back else "")
        base = self.name.split(" ")[0]
        return replace(
            self, name=f"{base} {label}", max_front_metal=front, max_back_metal=back
        )

    @property
    def routing_label(self) -> str:
        """Human label like ``FM12BM12`` or ``FM12``."""
        front, back = self.max_front_metal, self.max_back_metal
        return f"FM{front}" + (f"BM{back}" if back else "")


def make_ffet_node(front_layers: int = 12, back_layers: int = 12) -> TechNode:
    """3.5T FFET with dual-sided pins and symmetric intra-cell routing.

    The FFET removes supervias (only the Drain Merge remains), so its
    intra-cell parasitics are smaller than the CFET's (Section II.B).
    """
    device = DeviceParams(
        intra_cap_factor=0.72,
        intra_res_factor=0.70,
        supervia_res_kohm=0.0,
    )
    node = TechNode(
        name="FFET-3.5T",
        arch="ffet",
        stackup=build_stackup("ffet"),
        cell_height_tracks=3.5,
        device=device,
        m0_signal_tracks_per_side=3,
        dual_sided_pins=True,
        has_split_gate=True,
    )
    return node.with_routing_layers(front_layers, back_layers)


def make_cfet_node(front_layers: int = 12) -> TechNode:
    """4T CFET with BPR; pins and signal routing frontside-only."""
    device = DeviceParams(
        intra_cap_factor=1.0,
        intra_res_factor=1.0,
        supervia_res_kohm=0.12,
    )
    node = TechNode(
        name="CFET-4T",
        arch="cfet",
        stackup=build_stackup("cfet"),
        cell_height_tracks=4.0,
        device=device,
        m0_signal_tracks_per_side=4,
        dual_sided_pins=False,
        has_split_gate=False,
    )
    return node.with_routing_layers(front_layers, 0)
