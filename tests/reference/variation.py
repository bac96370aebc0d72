"""Scalar oracle for the Monte-Carlo engine: one sample at a time.

The engine times a block of samples as rows of one STA and power pass
over the nominal extraction.  This oracle evaluates each sample the
direct way instead: copy the extraction with the sample's wire RC
scaled, then run one-row STA and power on the copy.
"""

from __future__ import annotations

from repro.power import analyze_power
from repro.sta import analyze_timing, derate_report
from repro.variation.perturb import SampleResult, overlay_rc_factor

from .sta import scale_extraction_sided


def perturb_extraction(extraction, sample, pitch_nm):
    """The nominal extraction seen through one sample's BEOL draw.

    Frontside wires carry the front metal sigma; backside wires carry
    the back metal sigma *and* the overlay-coupling factor.  A design
    with no backside wiring (CFET, FFET FM-only) is therefore exactly
    insensitive to overlay, whatever the shift.
    """
    front = sample.front_rc_scale
    back = sample.back_rc_scale * overlay_rc_factor(sample, pitch_nm)
    return scale_extraction_sided(extraction, front, back)


def evaluate_sample(netlist, library, extraction, config, sample,
                    graph=None) -> SampleResult:
    """STA + power under one drawn perturbation."""
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
