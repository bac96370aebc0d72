"""Overlay-aware Monte-Carlo variation engine with statistical signoff.

The deterministic flow answers "what PPA does this design achieve?";
this package answers "how robustly?" — the first-order question for
FFET, whose signals live on both wafer sides and therefore see
frontside/backside overlay misalignment that single-sided CFET never
does (cf. the companion overlay study, arXiv:2501.16063).

Layers: seeded variation models (:mod:`.models`), pure perturbation
appliers over a completed flow's artifacts (:mod:`.perturb`), the
block-evaluating Monte-Carlo engine (:mod:`.engine`), and statistical PPA
signoff (:mod:`.signoff`).  CLI: ``repro mc``; docs:
``docs/variation.md``.
"""

from .engine import (
    SAMPLE_BLOCK,
    MonteCarloResult,
    NominalBundle,
    nominal_bundle,
    run_monte_carlo,
    run_samples,
)
from .models import (
    CDVariationModel,
    MetalRCVariationModel,
    OverlayModel,
    VariationModel,
    VariationSample,
    sample_seed,
    splitmix64,
)
from .perturb import (
    OVERLAY_RC_SLOPE,
    FailedSample,
    SampleResult,
    evaluate_block,
    mc_corner,
    overlay_rc_factor,
    wire_factors,
)
from .signoff import (
    SIGNOFF_METRICS,
    SignoffReport,
    format_signoff,
    sigma_comparison_table,
    signoff,
)

__all__ = [
    "CDVariationModel",
    "FailedSample",
    "MetalRCVariationModel",
    "MonteCarloResult",
    "NominalBundle",
    "OVERLAY_RC_SLOPE",
    "OverlayModel",
    "SAMPLE_BLOCK",
    "SIGNOFF_METRICS",
    "SampleResult",
    "SignoffReport",
    "VariationModel",
    "VariationSample",
    "evaluate_block",
    "format_signoff",
    "mc_corner",
    "nominal_bundle",
    "overlay_rc_factor",
    "run_monte_carlo",
    "run_samples",
    "sample_seed",
    "sigma_comparison_table",
    "signoff",
    "splitmix64",
    "wire_factors",
]
