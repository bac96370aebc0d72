"""Single- vs dual-sided CTS over the Fig. 12 utilization x layer-split
DoE (companion work: Jiang et al., arXiv:2503.12512).

The source paper keeps the clock tree frontside-only; this DoE measures
what partitioning it across both metal stacks does to skew, clock power
and Fmax on the RISC-V core, at two utilizations and two layer splits.
All 8 points run through one sweep call so a cached runner shares each
utilization's placement prefix across modes and splits.
"""

from repro.core import FlowConfig
from repro.core.sweeps import cts_mode_sweep

from conftest import FULL_SCALE, print_header, riscv_factory

UTILIZATIONS = (0.50, 0.62, 0.70, 0.76) if FULL_SCALE else (0.50, 0.70)
SPLITS = ((12, 12), (8, 8), (6, 6)) if FULL_SCALE else ((12, 12), (6, 6))


def run_cts_doe():
    base = FlowConfig(arch="ffet", backside_pin_fraction=0.5,
                      target_frequency_ghz=1.5)
    return cts_mode_sweep(riscv_factory, base, UTILIZATIONS, SPLITS)


def test_cts_dualside_doe(benchmark):
    points = benchmark.pedantic(run_cts_doe, rounds=1, iterations=1)

    print_header("Dual-sided CTS DoE: skew / clock power / Fmax "
                 "(FFET FP0.5BP0.5, single vs dual)")
    print(f"{'point':<16}{'mode':<8}{'fmax GHz':>9}{'skew ps':>9}"
          f"{'power mW':>10}{'wl um':>9}")
    pairs = {}
    for p in points:
        key = (p.utilization, p.front_layers, p.back_layers)
        pairs.setdefault(key, {})[p.cts_mode] = p.result
        r = p.result
        label = f"FM{p.front_layers}BM{p.back_layers} u{p.utilization:.2f}"
        if r.valid:
            print(f"{label:<16}{p.cts_mode:<8}"
                  f"{r.achieved_frequency_ghz:>9.3f}"
                  f"{r.timing.clock_skew_ps:>9.2f}"
                  f"{r.power.total_mw:>10.3f}"
                  f"{r.total_wirelength_um:>9.0f}")
        else:
            print(f"{label:<16}{p.cts_mode:<8}{'failed':>9}")

    # Every point of the DoE completes.
    assert all(p.result.valid for p in points)
    # Each (utilization, split) cell has both modes to compare.
    assert all(len(modes) == 2 for modes in pairs.values())
    # The dual-sided trees stay within the paper-style sanity envelope:
    # skew and power within 2x of the single-sided reference.
    for modes in pairs.values():
        single, dual = modes["single"], modes["dual"]
        assert dual.timing.clock_skew_ps <= \
            max(2.0 * single.timing.clock_skew_ps, 1.0)
        assert dual.power.total_mw <= 2.0 * single.power.total_mw


def test_dual_cts_routes_clock_on_backside(benchmark):
    """Artifact-level check at one DoE point: dual mode really lands
    clock wires on BM* metal."""
    from repro.core.flow import run_flow

    def run():
        return run_flow(riscv_factory,
                        FlowConfig(arch="ffet", utilization=0.5,
                                   cts_mode="dual"),
                        return_artifacts=True)

    artifacts = benchmark.pedantic(run, rounds=1, iterations=1)
    back_clock_nm = sum(
        p.back_wirelength_nm
        for name, p in artifacts.extraction.items()
        if name.startswith("ctsnet_")
    )
    print_header("Dual-sided CTS artifact check (rv core, u=0.50)")
    print(f"backside clock wirelength: {back_clock_nm / 1000.0:.1f} um")
    print(f"tree: {artifacts.cts_report.front_buffers} front / "
          f"{artifacts.cts_report.back_buffers} back buffers, "
          f"est. back fraction {artifacts.cts_report.back_fraction:.2f}")
    assert back_clock_nm > 0.0
