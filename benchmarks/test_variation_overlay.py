"""Overlay sensitivity: FFET timing spread grows with overlay, CFET's doesn't.

The companion overlay study's headline: FFET routes signals on both
wafer sides, so frontside-backside overlay misalignment degrades its
backside RC and widens the timing distribution; CFET routes signals on
one side only and is *exactly* insensitive to backside overlay.  This
benchmark sweeps the overlay sigma with CD and metal-RC variation
zeroed (isolating the overlay term) and prints the frequency-sigma
table recorded in EXPERIMENTS.md.
"""

from repro.core import FlowConfig
from repro.analysis import sample_stats
from repro.variation import VariationModel, nominal_bundle, run_samples

from conftest import print_header, riscv_factory

OVERLAY_SIGMAS_NM = (0.0, 1.0, 2.0, 4.0)
SAMPLES = 24
SEED = 7
UTIL = 0.50

CONFIGS = {
    "CFET": FlowConfig(arch="cfet", back_layers=0, backside_pin_fraction=0.0,
                       utilization=UTIL),
    "FFET dual": FlowConfig(arch="ffet", utilization=UTIL),
}


def run_overlay_sweep():
    """sigma(frequency) per config per overlay sigma, same seed throughout."""
    spreads = {}
    for name, config in CONFIGS.items():
        bundle = nominal_bundle(riscv_factory, config)
        spreads[name] = []
        for overlay in OVERLAY_SIGMAS_NM:
            model = VariationModel.for_arch(
                config.arch, overlay_sigma_nm=overlay,
                cd_sigma=0.0, rc_sigma=0.0)
            good, bad = run_samples(bundle, config, model, SAMPLES,
                                    seed=SEED)
            assert not bad, f"{name}: {len(bad)} samples quarantined"
            stats = sample_stats([s.achieved_frequency_ghz for s in good])
            spreads[name].append(stats.std)
    return spreads


def test_variation_overlay(benchmark):
    spreads = benchmark.pedantic(run_overlay_sweep, rounds=1, iterations=1)

    print_header(f"Overlay sweep: sigma(f) over {SAMPLES} samples, "
                 f"seed {SEED}")
    print(f"{'overlay sigma nm':>17}" + "".join(
        f"{name:>14}" for name in CONFIGS))
    for i, overlay in enumerate(OVERLAY_SIGMAS_NM):
        print(f"{overlay:>17.1f}" + "".join(
            f"{spreads[name][i]:>14.6f}" for name in CONFIGS))

    ffet = spreads["FFET dual"]
    cfet = spreads["CFET"]

    # Zero overlay means zero spread for both (CD/RC sigmas are zeroed).
    assert ffet[0] == 0.0 and cfet[0] == 0.0

    # FFET: spread strictly grows with the overlay sigma.
    for lo, hi in zip(ffet, ffet[1:]):
        assert hi > lo, f"FFET sigma not monotone: {ffet}"

    # CFET: no backside signal wires, so backside overlay cannot move a
    # single parasitic — the spread is identically zero at every sigma.
    assert cfet == [0.0] * len(OVERLAY_SIGMAS_NM), \
        f"CFET spread moved with overlay: {cfet}"
