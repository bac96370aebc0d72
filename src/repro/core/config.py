"""Flow configuration: one P&R + PPA experiment's knobs."""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..cells import pin_density_label
from ..tech import TechNode, make_cfet_node, make_ffet_node


@dataclass(frozen=True)
class FlowConfig:
    """Everything that defines one implementation run.

    The defaults correspond to the paper's FFET FM12BM12 baseline with
    evenly distributed input pins at 1.5 GHz synthesis target.
    """

    arch: str = "ffet"                  # "ffet" | "cfet"
    front_layers: int = 12              # FMn
    back_layers: int = 12               # BMn (0 = single-sided signals)
    backside_pin_fraction: float = 0.5  # FP(1-x) BP(x)
    utilization: float = 0.70
    aspect_ratio: float = 1.0
    target_frequency_ghz: float = 1.5
    seed: int = 0
    clock: str = "clk"
    gcell_tracks: int = 16
    max_fanout: int = 20
    #: Clock tree synthesis: ``"single"`` keeps the whole tree on
    #: frontside metal; ``"dual"`` partitions tree nets between the FM*
    #: and BM* stacks (FFET with backside layers only).
    cts_mode: str = "single"
    #: Target share of clock wirelength on backside metal in dual mode.
    cts_back_fraction: float = 0.5
    activity: float = 0.25
    #: Keep-out margin (in CPP) legalization enforces around each hard
    #: macro the design instantiates; no effect on macro-free designs.
    macro_halo_cpp: int = 2
    allow_bridging: bool = False
    power_stripe_pitch_cpp: int | None = None
    rrr_iterations: int = 8
    sizing_iterations: int = 12
    #: Optional greedy detailed-placement refinement after legalization.
    refine_placement: bool = False
    refine_iterations: int = 2000
    #: Free-form annotation for bookkeeping (sweep tags, experiment ids).
    #: Never affects the flow, so no stage reads it and no stored key
    #: covers it: two configs differing only in ``tag`` share every entry.
    tag: str = ""

    def __post_init__(self) -> None:
        if self.arch not in ("ffet", "cfet"):
            raise ValueError(f"unknown arch {self.arch!r}")
        if self.arch == "cfet" and self.back_layers:
            raise ValueError("CFET has no backside signal routing")
        if not 0.0 <= self.backside_pin_fraction <= 1.0:
            raise ValueError("backside_pin_fraction must be in [0, 1]")
        if self.arch == "cfet" and self.backside_pin_fraction:
            raise ValueError("CFET pins are frontside-only")
        if self.back_layers == 0 and self.backside_pin_fraction:
            raise ValueError(
                "backside pins need backside routing layers (or bridging)"
            )
        if self.macro_halo_cpp < 0:
            raise ValueError("macro_halo_cpp must be non-negative")
        if not self.target_frequency_ghz > 0:
            raise ValueError("target_frequency_ghz must be positive")
        if self.gcell_tracks < 1:
            raise ValueError("gcell_tracks must be at least 1")
        if self.max_fanout < 2:
            raise ValueError("max_fanout must be at least 2")
        if self.cts_mode not in ("single", "dual"):
            raise ValueError(f"unknown cts_mode {self.cts_mode!r}")
        if not 0.0 <= self.cts_back_fraction <= 1.0:
            raise ValueError("cts_back_fraction must be in [0, 1]")
        if self.cts_mode == "dual" and (self.arch != "ffet"
                                        or not self.back_layers):
            raise ValueError(
                "dual-sided CTS needs FFET with backside routing layers"
            )

    @property
    def target_period_ps(self) -> float:
        return 1000.0 / self.target_frequency_ghz

    def make_tech(self) -> TechNode:
        if self.arch == "cfet":
            return make_cfet_node(self.front_layers)
        return make_ffet_node(self.front_layers, self.back_layers)

    @property
    def label(self) -> str:
        """Paper-style label, e.g. ``FFET FM6BM6 FP0.5BP0.5``."""
        tech = "FFET" if self.arch == "ffet" else "CFET"
        layers = f"FM{self.front_layers}" + (
            f"BM{self.back_layers}" if self.back_layers else ""
        )
        parts = [tech, layers]
        if self.arch == "ffet" and self.back_layers:
            parts.append(pin_density_label(self.backside_pin_fraction))
        return " ".join(parts)

    def with_(self, **overrides) -> "FlowConfig":
        """A modified copy, e.g. ``config.with_(utilization=0.8)``."""
        return replace(self, **overrides)


def with_arch_defaults(fields: dict) -> dict:
    """``fields`` with the wafer-side fields ``arch`` implies where unset.

    ``back_layers`` defaults to 12 for FFET and 0 for CFET, and
    ``backside_pin_fraction`` to 0.5 with backside layers and 0.0
    without.  Fields the caller set are kept as they are, for
    :class:`FlowConfig` to check.
    """
    out = dict(fields)
    ffet = out.get("arch", FlowConfig.arch) == "ffet"
    out.setdefault("back_layers", FlowConfig.back_layers if ffet else 0)
    out.setdefault("backside_pin_fraction",
                   FlowConfig.backside_pin_fraction
                   if ffet and out["back_layers"] else 0.0)
    return out
