"""Parameter sweeps behind the paper's figures.

Each function returns plain result rows; the benchmarks print them in
the same shape as the corresponding paper figure, and EXPERIMENTS.md
records paper-vs-measured values.

Every sweep accepts an optional :class:`~repro.core.runner.SweepRunner`
that fans the independent flow runs out over a process pool and serves
repeated points from the on-disk artifact store.  Without one, a private
serial runner is used and behavior matches the historical loops.

The default grids of ``repro sweep`` and the layer-split parser live
here once; ``repro serve`` sweep specs (:mod:`repro.service.jobspec`)
expand over the same definitions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from ..netlist import Netlist
from .config import FlowConfig
from .ppa import FailedRun, PPAResult
from .runner import SweepRunner, run_once

#: Utilization grid used by the paper's utilization sweeps (Fig. 8, 11).
DEFAULT_UTILIZATIONS = tuple(round(0.46 + 0.05 * i, 2) for i in range(9))

#: The ``repro sweep`` axes.  A ``repro serve`` sweep spec expands over
#: the same axes and, given no values, the same default grids below.
SWEEP_AXES = ("utilization", "frequency", "layers", "cts")
#: Default points of the ``utilization`` axis.
SWEEP_UTILIZATIONS = (0.5, 0.6, 0.7, 0.76, 0.8, 0.86)
#: Default synthesis targets of the ``frequency`` axis (Fig. 9), GHz.
FREQUENCY_TARGETS = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)
#: Default front/back routing-layer splits of the ``layers`` axis.
LAYER_SPLITS = ((9, 3), (8, 4), (7, 5), (6, 6))
#: Default utilizations and splits of the ``cts`` axis.
CTS_UTILIZATIONS = (0.5, 0.7)
CTS_SPLITS = ((12, 12), (6, 6))


def parse_split(text) -> tuple[int, int]:
    """One routing-layer split: ``"FRONT:BACK"`` (``"8:4"``) or ``[8, 4]``."""
    if (isinstance(text, (list, tuple)) and len(text) == 2
            and all(isinstance(v, int) for v in text)):
        return int(text[0]), int(text[1])
    if isinstance(text, str):
        front, sep, back = text.partition(":")
        if sep:
            try:
                return int(front), int(back)
            except ValueError:
                pass
    raise ValueError(f"invalid layer split {text!r} "
                     "(expected 'FRONT:BACK', e.g. '8:4', or [F, B])")


def try_run(netlist_factory: Callable[[], Netlist],
            config: FlowConfig) -> PPAResult | FailedRun:
    """Run one flow; a placement failure becomes a :class:`FailedRun`."""
    return run_once(netlist_factory, config)


def _runner(runner: SweepRunner | None) -> SweepRunner:
    return runner if runner is not None else SweepRunner()


def utilization_sweep(netlist_factory: Callable[[], Netlist],
                      config: FlowConfig,
                      utilizations: Sequence[float] = DEFAULT_UTILIZATIONS,
                      runner: SweepRunner | None = None,
                      ) -> list[PPAResult | FailedRun]:
    """Core area vs utilization (Fig. 8a/8c) and the Fig. 11 point sets."""
    return _runner(runner).run_many(
        netlist_factory,
        [config.with_(utilization=util) for util in utilizations],
    )


def max_valid_utilization(netlist_factory: Callable[[], Netlist],
                          config: FlowConfig,
                          utilizations: Sequence[float] | None = None,
                          runner: SweepRunner | None = None,
                          ) -> tuple[float, list[PPAResult | FailedRun]]:
    """Highest utilization that places cleanly and routes with <10 DRVs.

    This is the paper's "maximum utilization" metric (Figs. 8 and 12).
    Returns (max utilization, all runs); 0.0 when nothing is valid.
    """
    if utilizations is None:
        utilizations = [round(0.46 + 0.02 * i, 2) for i in range(23)]
    runs = _runner(runner).run_many(
        netlist_factory,
        [config.with_(utilization=util) for util in utilizations],
    )
    best = 0.0
    for util, run in zip(utilizations, runs):
        if run.valid:
            best = max(best, util)
    return best, runs


def frequency_sweep(netlist_factory: Callable[[], Netlist],
                    config: FlowConfig,
                    targets_ghz: Sequence[float] = FREQUENCY_TARGETS,
                    runner: SweepRunner | None = None,
                    ) -> list[PPAResult | FailedRun]:
    """Power-frequency relationship (Fig. 9): sweep the synthesis target."""
    return _runner(runner).run_many(
        netlist_factory,
        [config.with_(target_frequency_ghz=f) for f in targets_ghz],
    )


def frequency_area_sweep(netlist_factory: Callable[[], Netlist],
                         config: FlowConfig,
                         utilizations: Sequence[float] = DEFAULT_UTILIZATIONS,
                         runner: SweepRunner | None = None,
                         ) -> list[PPAResult | FailedRun]:
    """Frequency-area relationship (Fig. 10): at a fixed 1.5 GHz target,
    smaller dies (higher utilization) trade frequency for area."""
    return utilization_sweep(netlist_factory, config, utilizations,
                             runner=runner)


@dataclass(frozen=True)
class LayerSweepPoint:
    """One point of the Fig. 12 / Fig. 13 layer-count sweeps."""

    front_layers: int
    back_layers: int
    max_utilization: float
    result: PPAResult | FailedRun | None

    @property
    def label(self) -> str:
        back = f"BM{self.back_layers}" if self.back_layers else ""
        return f"FM{self.front_layers}{back}"


def layer_split_sweep(netlist_factory: Callable[[], Netlist],
                      config: FlowConfig,
                      splits: Sequence[tuple[int, int]],
                      runner: SweepRunner | None = None,
                      ) -> list[LayerSweepPoint]:
    """One run per (front, back) routing-layer split (Table III space).

    Every split shares the flow prefix up to ``legalization`` — the
    layer counts first enter the stage key chain at ``routing`` — so
    with a cached runner the sweep places once and routes N times (see
    docs/architecture.md).
    """
    configs = [config.with_(front_layers=front, back_layers=back)
               for front, back in splits]
    runs = _runner(runner).run_many(netlist_factory, configs)
    points = []
    for (front, back), run in zip(splits, runs):
        util = run.achieved_utilization if isinstance(run, PPAResult) else 0.0
        points.append(LayerSweepPoint(front, back, util, run))
    return points


def layer_count_utilization_sweep(netlist_factory: Callable[[], Netlist],
                                  config: FlowConfig,
                                  layer_counts: Sequence[int] = tuple(range(2, 13)),
                                  utilizations: Sequence[float] | None = None,
                                  runner: SweepRunner | None = None,
                                  ) -> list[LayerSweepPoint]:
    """Fig. 12: max utilization vs symmetric front/back layer count."""
    runner = _runner(runner)
    points = []
    for n in layer_counts:
        cfg = config.with_(front_layers=n, back_layers=n)
        best, _runs = max_valid_utilization(netlist_factory, cfg,
                                            utilizations, runner=runner)
        points.append(LayerSweepPoint(n, n, best, None))
    return points


@dataclass(frozen=True)
class CtsSweepPoint:
    """One point of the single- vs dual-sided CTS comparison DoE."""

    utilization: float
    front_layers: int
    back_layers: int
    cts_mode: str
    result: PPAResult | FailedRun

    @property
    def label(self) -> str:
        back = f"BM{self.back_layers}" if self.back_layers else ""
        return (f"FM{self.front_layers}{back} u{self.utilization:.2f} "
                f"cts={self.cts_mode}")


def cts_mode_sweep(netlist_factory: Callable[[], Netlist],
                   config: FlowConfig,
                   utilizations: Sequence[float] = CTS_UTILIZATIONS,
                   splits: Sequence[tuple[int, int]] = CTS_SPLITS,
                   runner: SweepRunner | None = None,
                   back_fraction: float = 0.5,
                   ) -> list[CtsSweepPoint]:
    """Single- vs dual-sided CTS over the Fig. 12 utilization x
    layer-split DoE.

    All points go through one :meth:`~SweepRunner.run_many` call, so a
    cached runner shares each utilization's library..placement prefix
    across CTS modes and layer splits — CTS is the first stage whose
    key differs between the two modes.
    """
    grid = [(util, front, back, mode)
            for util in utilizations
            for front, back in splits
            for mode in ("single", "dual")]
    configs = [config.with_(utilization=util, front_layers=front,
                            back_layers=back, cts_mode=mode,
                            cts_back_fraction=back_fraction)
               for util, front, back, mode in grid]
    runs = _runner(runner).run_many(netlist_factory, configs)
    return [CtsSweepPoint(util, front, back, mode, run)
            for (util, front, back, mode), run in zip(grid, runs)]


def layer_count_efficiency_sweep(netlist_factory: Callable[[], Netlist],
                                 config: FlowConfig,
                                 layer_counts: Sequence[int] = tuple(range(3, 13)),
                                 runner: SweepRunner | None = None,
                                 ) -> list[LayerSweepPoint]:
    """Fig. 13: power efficiency vs symmetric layer count at fixed
    utilization and 1.5 GHz target."""
    configs = [config.with_(front_layers=n, back_layers=n)
               for n in layer_counts]
    runs = _runner(runner).run_many(netlist_factory, configs)
    points = []
    for n, run in zip(layer_counts, runs):
        util = run.achieved_utilization if isinstance(run, PPAResult) else 0.0
        points.append(LayerSweepPoint(n, n, util, run))
    return points
