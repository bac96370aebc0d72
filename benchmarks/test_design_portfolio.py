"""Extension: does the FFET advantage generalize beyond the RISC-V core?

Not a paper figure — an extra study running three different design
styles (control-heavy counter bank, carry-chain multiplier, register-
rich FIR filter) through both technologies at the same utilization.
The paper's conclusion predicts the FFET wins area everywhere and
frequency/efficiency on logic-dominated blocks.
"""

from repro.core import FlowConfig
from repro.core.runner import run_once
from repro.synth import generate_counter, generate_fir_filter, generate_multiplier

from conftest import print_header

DESIGNS = {
    "counter32": lambda: generate_counter(32),
    "mult8": lambda: generate_multiplier(8),
    "fir4x6": lambda: generate_fir_filter(4, 6),
}

CONFIGS = {
    "FFET": FlowConfig(arch="ffet", backside_pin_fraction=0.5,
                       utilization=0.70),
    "CFET": FlowConfig(arch="cfet", back_layers=0, backside_pin_fraction=0.0,
                       utilization=0.70),
}


def run_portfolio():
    out = {}
    for design_name, factory in DESIGNS.items():
        for config_name, config in CONFIGS.items():
            out[(design_name, config_name)] = run_once(factory, config)
    return out


def test_design_portfolio(benchmark):
    results = benchmark.pedantic(run_portfolio, rounds=1, iterations=1)

    print_header("Extension: FFET vs CFET across design styles (70% util)")
    print(f"{'design':<12}{'tech':<6}{'area um2':>10}{'f GHz':>8}"
          f"{'P mW':>8}{'GHz/mW':>9}{'valid':>7}")
    for (design, tech), run in results.items():
        print(f"{design:<12}{tech:<6}{run.core_area_um2:>10.1f}"
              f"{run.achieved_frequency_ghz:>8.2f}"
              f"{run.total_power_mw:>8.3f}"
              f"{run.power_efficiency:>9.3f}{str(run.valid):>7}")

    for design in DESIGNS:
        ffet = results[(design, "FFET")]
        cfet = results[(design, "CFET")]
        area_gain = ffet.core_area_um2 / cfet.core_area_um2 - 1
        eff_gain = ffet.power_efficiency / cfet.power_efficiency - 1
        print(f"{design}: area {area_gain:+.1%}, "
              f"efficiency {eff_gain:+.1%}")
        # Cell-height scaling guarantees the area win on every design.
        assert area_gain < -0.08
        # And the FFET should never be less power-efficient.
        assert eff_gain > -0.02
