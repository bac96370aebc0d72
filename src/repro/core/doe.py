"""Design-of-experiments runners for Fig. 11 and Table III.

Fig. 11: five backside input-pin density DoEs (FP0.96BP0.04 through
FP0.5BP0.5), all routed FM12BM12, swept over utilization at a 1.5 GHz
target; each cloud is summarized by a 50 % confidence ellipse.

Table III: with the total routing-layer count capped at 12, enumerate
the frontside/backside splits that stay routable for each pin-density
DoE and report frequency/power diffs against the single-sided
FFET FM12 baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from ..analysis import Ellipse, confidence_ellipse, relative_diff
from ..netlist import Netlist
from .config import FlowConfig
from .ppa import PPAResult
from .runner import SweepRunner
from .sweeps import DEFAULT_UTILIZATIONS, utilization_sweep

#: The paper's five backside input-pin density DoEs (Fig. 11).
PIN_DENSITY_DOES = (0.04, 0.16, 0.30, 0.40, 0.50)


@dataclass(frozen=True)
class DoeCloud:
    """One DoE's power-frequency point cloud plus its ellipse."""

    backside_fraction: float
    label: str
    results: tuple[PPAResult, ...]
    ellipse: Ellipse | None

    # The means add left to right from 0.0: builtins.sum over floats is
    # a compensated sum on Python >= 3.12, so `merit`'s ranking would
    # depend on the interpreter.
    @property
    def mean_frequency_ghz(self) -> float:
        total = 0.0
        for r in self.results:
            total += r.achieved_frequency_ghz
        return total / len(self.results)

    @property
    def mean_power_mw(self) -> float:
        total = 0.0
        for r in self.results:
            total += r.total_power_mw
        return total / len(self.results)

    @property
    def merit(self) -> float:
        """Frequency per power: higher is better (ranks the ellipses)."""
        return self.mean_frequency_ghz / self.mean_power_mw


def pin_density_doe(netlist_factory: Callable[[], Netlist],
                    base: FlowConfig | None = None,
                    fractions: Sequence[float] = PIN_DENSITY_DOES,
                    utilizations: Sequence[float] = DEFAULT_UTILIZATIONS,
                    runner: SweepRunner | None = None,
                    ) -> list[DoeCloud]:
    """Run the Fig. 11 experiment; one cloud per pin-density DoE."""
    base = base or FlowConfig(arch="ffet", front_layers=12, back_layers=12,
                              target_frequency_ghz=1.5)
    runner = runner if runner is not None else SweepRunner()
    clouds = []
    for fraction in fractions:
        config = base.with_(backside_pin_fraction=fraction)
        runs = utilization_sweep(netlist_factory, config, utilizations,
                                 runner=runner)
        ok = tuple(r for r in runs if isinstance(r, PPAResult) and r.valid)
        ellipse = None
        if len(ok) >= 3:
            ellipse = confidence_ellipse(
                [r.achieved_frequency_ghz for r in ok],
                [r.total_power_mw for r in ok],
                confidence=0.50,
            )
        clouds.append(DoeCloud(
            backside_fraction=fraction,
            label=config.label,
            results=ok,
            ellipse=ellipse,
        ))
    return clouds


@dataclass(frozen=True)
class CooptRow:
    """One Table III row."""

    backside_fraction: float
    front_layers: int
    back_layers: int
    frequency_diff: float
    power_diff: float
    valid: bool

    @property
    def pattern(self) -> str:
        return f"FM{self.front_layers}BM{self.back_layers}"


def layer_splits(total_layers: int = 12, min_back: int = 1,
                 min_front: int = 2) -> list[tuple[int, int]]:
    """All (front, back) splits with the given total (Table III space)."""
    return [
        (front, total_layers - front)
        for front in range(min_front, total_layers - min_back + 1)
    ]


def cooptimization_table(netlist_factory: Callable[[], Netlist],
                         base: FlowConfig | None = None,
                         fractions: Sequence[float] = PIN_DENSITY_DOES,
                         total_layers: int = 12,
                         utilization: float = 0.76,
                         keep_top: int = 3,
                         runner: SweepRunner | None = None) -> list[CooptRow]:
    """Run the Table III co-optimization.

    The baseline is the single-sided FFET FM12 at the same utilization
    and target; each DoE keeps its ``keep_top`` best valid splits by
    frequency gain (the paper lists 2-3 per DoE).
    """
    base = base or FlowConfig(arch="ffet", front_layers=12, back_layers=12,
                              target_frequency_ghz=1.5)
    runner = runner if runner is not None else SweepRunner()
    baseline_cfg = base.with_(front_layers=total_layers, back_layers=0,
                              backside_pin_fraction=0.0,
                              utilization=utilization)
    baseline = runner.run_one(netlist_factory, baseline_cfg)
    if not isinstance(baseline, PPAResult):
        raise RuntimeError(f"baseline failed: {baseline.reason}")

    splits = layer_splits(total_layers)
    rows: list[CooptRow] = []
    for fraction in fractions:
        configs = [
            base.with_(front_layers=front, back_layers=back,
                       backside_pin_fraction=fraction,
                       utilization=utilization)
            for front, back in splits
        ]
        runs = runner.run_many(netlist_factory, configs)
        candidates: list[CooptRow] = []
        for (front, back), run in zip(splits, runs):
            if not isinstance(run, PPAResult):
                continue
            candidates.append(CooptRow(
                backside_fraction=fraction,
                front_layers=front,
                back_layers=back,
                frequency_diff=relative_diff(run.achieved_frequency_ghz,
                                             baseline.achieved_frequency_ghz),
                power_diff=relative_diff(run.total_power_mw,
                                         baseline.total_power_mw),
                valid=run.valid,
            ))
        valid = [c for c in candidates if c.valid]
        valid.sort(key=lambda c: -c.frequency_diff)
        rows.extend(valid[:keep_top])
    return rows
