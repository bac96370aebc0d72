"""Shared golden-regression case table.

Used by ``scripts/make_golden.py`` (fixture capture) and
``tests/test_golden_regression.py`` (assertions), so the two can never
drift apart.  Factories are module-level classes so the same cases run
through the process pool unchanged.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

from repro.core import FlowConfig
from repro.synth import (
    RiscvConfig,
    generate_multiplier,
    generate_riscv_core,
    generate_rv16_sram,
)
from repro.variation import run_monte_carlo

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "headline_ppa.json"
MC_GOLDEN_PATH = GOLDEN_PATH.with_name("mc_rv8.json")


class MultiplierFactory:
    """Picklable netlist factory for the n-bit array multiplier."""

    def __init__(self, bits: int) -> None:
        self.bits = bits

    def __call__(self):
        return generate_multiplier(self.bits)


class RiscvTinyFactory:
    """Picklable factory for the scaled-down RISC-V core."""

    def __call__(self):
        return generate_riscv_core(RiscvConfig(xlen=8, nregs=8,
                                               name="rv_tiny"))


class SramCoreFactory:
    """Picklable factory for the SRAM-macro-backed RISC-V core."""

    def __call__(self):
        return generate_rv16_sram()


#: The headline PPA comparison (FFET dual-sided vs FFET FM12 vs CFET)
#: at the default config, plus one RISC-V point — the numbers the
#: parallel and cached paths must reproduce bit-for-bit.
CASES: dict[str, tuple[object, FlowConfig]] = {
    "ffet_dual_mult5": (MultiplierFactory(5), FlowConfig()),
    "ffet_fm12_mult5": (MultiplierFactory(5),
                        FlowConfig(arch="ffet", back_layers=0,
                                   backside_pin_fraction=0.0)),
    "cfet_mult5": (MultiplierFactory(5),
                   FlowConfig(arch="cfet", back_layers=0,
                              backside_pin_fraction=0.0)),
    "ffet_dual_rv8": (RiscvTinyFactory(), FlowConfig()),
    # Dual-sided CTS is opt-in: this pinned variant proves the knob
    # produces stable numbers while every case above (cts_mode="single"
    # by default) stays bit-for-bit unchanged.
    "ffet_dualcts_mult5": (MultiplierFactory(5),
                           FlowConfig(cts_mode="dual")),
    # The macro path: an SRAM hard macro exercises floorplan keep-outs,
    # blockage-aware legalization, derated routing capacity and the
    # macro LEF/DEF emission on every regression run.
    "ffet_dual_rv16_sram": (SramCoreFactory(), FlowConfig()),
}


#: The pinned Monte-Carlo study: (factory, config, samples, seed) of 16
#: overlay samples of the rv8 core at the default config.
MC_CASE = (RiscvTinyFactory(), FlowConfig(), 16, 0)


def mc_study_payload() -> dict:
    """The pinned study's samples, every float by ``float.hex``."""
    factory, config, samples, seed = MC_CASE
    study = run_monte_carlo(factory, config, samples=samples, seed=seed)

    def hexed(result) -> dict:
        return {k: v.hex() if isinstance(v, float) else v
                for k, v in dataclasses.asdict(result).items()}

    return {"samples": [hexed(s) for s in study.samples],
            "failed": [hexed(f) for f in study.failed]}
