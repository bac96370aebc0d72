"""Pure perturbation appliers: artifacts + drawn samples -> metrics.

The expensive stages of a flow — placement, CTS, routing, DEF merge,
extraction — are overlay-invariant to first order: misalignment does
not move cells or reroute wires, it perturbs the *parasitics* the
routed geometry produces and the *delays* the fabricated cells exhibit.
So a Monte-Carlo sample never re-runs P&R; it re-evaluates STA and
power on a perturbed view of the nominal artifacts, and a block of
samples is one such evaluation with a row per sample:

* the overlay shift scales the RC of backside wiring, and the per-side
  metal sigma scales front/back wire RC: each net gets one wire-RC
  factor per sample, interpolated by its backside wirelength fraction
  (:func:`wire_factors`), which STA and power apply as a row of
  :func:`~repro.sta.analyze_timing_rows` /
  :func:`~repro.power.analyze_power_rows`;
* the CD/gate-length sigma derates cell delays through the existing
  :class:`~repro.sta.corners.Corner` machinery
  (:func:`~repro.sta.corners.derate_report`).

Everything here is a pure function of (artifacts, samples): no RNG, no
global state, no mutation of the nominal artifacts — so a sample's
result depends only on its own draw, never on the block it shares.
``tests/reference/variation.py`` is the one-sample-at-a-time oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cells import Library
from ..core.config import FlowConfig
from ..extract import Extraction
from ..netlist import Netlist
from ..power import analyze_power_rows
from ..sta import TimingGraph, analyze_timing_rows, derate_report
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


def wire_factors(netlist: Netlist, extraction: Extraction,
                 samples: list[VariationSample],
                 pitch_nm: float) -> np.ndarray:
    """(samples, nets) wire-RC factors, nets in ``netlist.nets`` order.

    Frontside wires carry the front metal sigma; backside wires carry
    the back metal sigma *and* the overlay-coupling factor; a net's
    factor is ``front + back_fraction * (back - front)``.  A design
    with no backside wiring (CFET, FFET FM-only) is therefore exactly
    insensitive to overlay, whatever the shift.
    """
    fraction = extraction.back_fraction(netlist.nets)
    front = np.array([[s.front_rc_scale] for s in samples], dtype=float)
    back = np.array([[s.back_rc_scale * overlay_rc_factor(s, pitch_nm)]
                     for s in samples], dtype=float)
    return front + fraction * (back - front)


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


def evaluate_block(netlist: Netlist, library: Library,
                   extraction: Extraction, config: FlowConfig,
                   samples: list[VariationSample],
                   graph: TimingGraph) -> list[SampleResult]:
    """STA + power under each drawn perturbation: one pass, a row each.

    ``graph`` is the :class:`~repro.sta.TimingGraph` of ``netlist`` the
    caller shares across its blocks.  Emits no telemetry.
    """
    period = config.target_period_ps
    factors = wire_factors(netlist, extraction, samples,
                           library.tech.rules.track_pitch_nm)
    timing = [derate_report(report, sample.cell_derate, period)
              for report, sample in zip(
                  analyze_timing_rows(netlist, library, extraction, factors,
                                      period, config.clock, graph=graph),
                  samples)]
    power = analyze_power_rows(
        netlist, library, extraction, factors,
        [t.achieved_frequency_ghz for t in timing],
        activity=config.activity, clock=config.clock)
    return [SampleResult(
        index=sample.index,
        seed=sample.seed,
        overlay_shift_nm=sample.overlay_shift_nm,
        cell_derate=sample.cell_derate,
        front_rc_scale=sample.front_rc_scale,
        back_rc_scale=sample.back_rc_scale,
        achieved_frequency_ghz=t.achieved_frequency_ghz,
        wns_ps=t.wns_ps,
        tns_ps=t.tns_ps,
        total_power_mw=p.total_mw,
    ) for sample, t, p in zip(samples, timing, power)]
