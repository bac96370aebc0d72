"""Table III: input-pin density x routing-layer co-optimization.

Paper: with the total routing-layer count capped at 12, FFET FP0.5BP0.5
routed FM6BM6 gains +10.6 % frequency without power degradation over
the single-sided FFET FM12 baseline; FP0.7BP0.3 with FM8BM4/FM7BM5
reaches +12.8 % at +1.4 % power.
"""

from repro.core import FlowConfig
from repro.core.doe import cooptimization_table
from repro.core.runner import run_once

from conftest import FULL_SCALE, print_header, riscv_factory

FRACTIONS = (0.04, 0.16, 0.3, 0.4, 0.5) if FULL_SCALE else (0.16, 0.3, 0.5)
UTIL = 0.70


def run_table3():
    base = FlowConfig(arch="ffet", backside_pin_fraction=0.5,
                      target_frequency_ghz=1.5)
    rows = cooptimization_table(riscv_factory, base, fractions=FRACTIONS,
                                total_layers=12, utilization=UTIL,
                                keep_top=3)
    # Also report the full FM12BM12 dual-sided reference point.
    dual = run_once(riscv_factory, base.with_(utilization=UTIL))
    baseline = run_once(
        riscv_factory,
        base.with_(front_layers=12, back_layers=0,
                   backside_pin_fraction=0.0, utilization=UTIL),
    )
    return rows, dual, baseline


def test_table3_cooptimization(benchmark):
    rows, dual, baseline = benchmark.pedantic(run_table3, rounds=1,
                                              iterations=1)

    print_header("Table III: layer-split co-optimization vs FFET FM12 "
                 f"baseline at {UTIL:.0%} utilization")
    print(f"{'pin density':<16}{'pattern':<10}"
          f"{'freq diff':>10}{'power diff':>11}")
    for row in rows:
        label = f"FP{1 - row.backside_fraction:g}BP{row.backside_fraction:g}"
        print(f"{label:<16}{row.pattern:<10}"
              f"{row.frequency_diff:>+9.1%}{row.power_diff:>+10.1%}")

    dual_gain = dual.achieved_frequency_ghz / \
        baseline.achieved_frequency_ghz - 1
    dual_power = dual.total_power_mw / baseline.total_power_mw - 1
    print(f"\nFM12BM12 FP0.5BP0.5 reference: freq {dual_gain:+.1%}, "
          f"power {dual_power:+.1%}")
    print("Paper: best split FM6BM6 @ FP0.5BP0.5 = +10.6% freq, no power "
          "degradation; FM8BM4/FM7BM5 @ FP0.7BP0.3 = +12.8% freq, +1.4% "
          "power")

    # Dual-sided signals must deliver a frequency gain over the
    # single-sided baseline (the paper's headline conclusion).  The
    # gain grows with design size; at reduced scale only require it to
    # be non-negative.
    assert dual_gain > (0.02 if FULL_SCALE else 0.0)
    assert rows, "no valid layer splits found"
