"""Pure perturbation appliers: artifacts + a drawn sample -> metrics.

The expensive stages of a flow — placement, CTS, routing, DEF merge,
extraction — are overlay-invariant to first order: misalignment does
not move cells or reroute wires, it perturbs the *parasitics* the
routed geometry produces and the *delays* the fabricated cells exhibit.
So a Monte-Carlo sample never re-runs P&R; it re-evaluates STA and
power on perturbed views of the nominal artifacts:

* the overlay shift scales the coupling/area RC of backside wiring
  (weighted per net by its backside wirelength fraction) through
  :func:`~repro.sta.rc_scale.scale_extraction_sided`;
* the per-side metal sigma scales front/back wire RC the same way;
* the CD/gate-length sigma derates cell delays through the existing
  :class:`~repro.sta.corners.Corner` machinery
  (:func:`~repro.sta.corners.derate_report`).

Everything here is a pure function of (artifacts, sample): no RNG, no
global state, no mutation of the nominal artifacts — which is what
makes samples embarrassingly parallel and bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cells import Library
from ..core.config import FlowConfig
from ..extract import Extraction
from ..netlist import Netlist
from ..power import analyze_power
from ..sta import (
    TimingGraph,
    analyze_timing,
    derate_report,
    scale_extraction_sided,
)
from ..sta.corners import Corner
from .models import VariationSample

#: Relative backside wire-RC increase per unit of overlay shift over
#: one track pitch.  A shift of a full pitch misplaces a backside wire
#: onto its neighbor's coupling environment, which this first-order
#: coefficient prices at +35 % RC (coupling growth dominates the area
#: loss at these geometries).
OVERLAY_RC_SLOPE = 0.35


def overlay_rc_factor(sample: VariationSample, pitch_nm: float) -> float:
    """Backside RC multiplier induced by this sample's overlay shift."""
    if pitch_nm <= 0:
        raise ValueError("track pitch must be positive")
    return 1.0 + OVERLAY_RC_SLOPE * sample.overlay_shift_nm / pitch_nm


def mc_corner(sample: VariationSample) -> Corner:
    """This sample's CD derate packaged as a one-off PVT corner."""
    return Corner(name=f"mc{sample.index:05d}",
                  cell_derate=sample.cell_derate, wire_derate=1.0)


def perturb_extraction(extraction: Extraction, sample: VariationSample,
                       pitch_nm: float) -> Extraction:
    """The nominal extraction seen through one sample's BEOL draw.

    Frontside wires carry the front metal sigma; backside wires carry
    the back metal sigma *and* the overlay-coupling factor.  A design
    with no backside wiring (CFET, FFET FM-only) is therefore exactly
    insensitive to overlay, whatever the shift.
    """
    front = sample.front_rc_scale
    back = sample.back_rc_scale * overlay_rc_factor(sample, pitch_nm)
    return scale_extraction_sided(extraction, front, back)


@dataclass(frozen=True)
class SampleResult:
    """One Monte-Carlo sample's evaluated metrics — plain, picklable."""

    index: int
    seed: int
    overlay_shift_nm: float
    cell_derate: float
    front_rc_scale: float
    back_rc_scale: float
    achieved_frequency_ghz: float
    wns_ps: float
    tns_ps: float
    total_power_mw: float

    @property
    def met(self) -> bool:
        """Whether this sample closes timing at the target period."""
        return self.wns_ps >= 0.0


@dataclass(frozen=True)
class FailedSample:
    """A sample whose evaluation raised — quarantined, never fatal."""

    index: int
    seed: int
    cause: str
    reason: str


def evaluate_sample(netlist: Netlist, library: Library,
                    extraction: Extraction, config: FlowConfig,
                    sample: VariationSample,
                    graph: TimingGraph | None = None) -> SampleResult:
    """STA + power under one drawn perturbation (milliseconds, no P&R).

    ``graph`` is the :class:`~repro.sta.TimingGraph` of ``netlist`` the
    caller shares across its samples; without one, STA builds its own.
    """
    pitch = library.tech.rules.track_pitch_nm
    perturbed = perturb_extraction(extraction, sample, pitch)
    timing = analyze_timing(netlist, library, perturbed,
                            config.target_period_ps, clock=config.clock,
                            graph=graph)
    timing = derate_report(timing, sample.cell_derate,
                           config.target_period_ps)
    power = analyze_power(netlist, library, perturbed,
                          timing.achieved_frequency_ghz,
                          activity=config.activity, clock=config.clock)
    return SampleResult(
        index=sample.index,
        seed=sample.seed,
        overlay_shift_nm=sample.overlay_shift_nm,
        cell_derate=sample.cell_derate,
        front_rc_scale=sample.front_rc_scale,
        back_rc_scale=sample.back_rc_scale,
        achieved_frequency_ghz=timing.achieved_frequency_ghz,
        wns_ps=timing.wns_ps,
        tns_ps=timing.tns_ps,
        total_power_mw=power.total_mw,
    )
