"""BEOL manufacturing-cost model for layer-count exploration.

The paper motivates reduced layer counts with manufacturing cost
("FM12BM12 faces many challenges and is costly in practical
manufacturing processes", Section IV).  This model makes that argument
quantitative: each metal layer costs one litho/etch/CMP pass whose
price depends on its pitch class (EUV double patterning for the finest
pitches, EUV single, then immersion DUV), plus a wafer-flip/bond
overhead when the backside carries signal layers at all.

Costs are in arbitrary units normalized to one immersion-DUV pass.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..tech import Side, TechNode

#: Relative cost of one patterning pass by minimum pitch (nm).
_PASS_COST = (
    (32.0, 4.0),    # < 32 nm: EUV double patterning
    (48.0, 2.5),    # < 48 nm: EUV single
    (90.0, 1.4),    # < 90 nm: immersion multi-patterning
    (float("inf"), 1.0),  # relaxed immersion
)

#: One-time cost of enabling backside signal processing (flip + bond
#: + backside litho alignment), in pass units.
BACKSIDE_ENABLEMENT_COST = 3.0


def _pass_cost(pitch_nm: float) -> float:
    for limit, cost in _PASS_COST:
        if pitch_nm < limit:
            return cost
    raise AssertionError("unreachable")


@dataclass(frozen=True)
class BeolCost:
    """Cost breakdown of one technology configuration."""

    front_passes: float
    back_passes: float
    backside_enablement: float

    @property
    def total(self) -> float:
        return self.front_passes + self.back_passes + self.backside_enablement


def _passes(layers) -> float:
    """The layers' pass costs added left to right from 0.0 (builtins.sum
    over floats is a compensated sum on Python >= 3.12)."""
    total = 0.0
    for layer in layers:
        total += _pass_cost(layer.pitch_nm)
    return total


def beol_cost(tech: TechNode) -> BeolCost:
    """Cost of the configured routing stack (signal layers only)."""
    front = _passes(tech.routing_layers(Side.FRONT))
    back_layers = tech.routing_layers(Side.BACK)
    back = _passes(back_layers)
    enablement = BACKSIDE_ENABLEMENT_COST if back_layers else 0.0
    return BeolCost(front_passes=front, back_passes=back,
                    backside_enablement=enablement)


def cost_efficiency(result, tech: TechNode) -> float:
    """Frequency per (power x BEOL cost): the cost-aware figure of merit
    behind the paper's Fig. 12/13 argument."""
    return result.achieved_frequency_ghz / (
        result.total_power_mw * beol_cost(tech).total
    )
