"""Sweep and DoE harness tests on a small design."""

import pytest

from repro.core import FlowConfig, PPAResult
from repro.core.doe import (
    CooptRow,
    cooptimization_table,
    layer_splits,
    pin_density_doe,
)
from repro.core.runner import run_once
from repro.core.sweeps import (
    frequency_sweep,
    layer_count_efficiency_sweep,
    max_valid_utilization,
    utilization_sweep,
)
from repro.synth import generate_multiplier


def factory():
    return generate_multiplier(5)


BASE = FlowConfig(arch="ffet", backside_pin_fraction=0.5,
                  target_frequency_ghz=1.5)


class TestTryRun:
    def test_success(self):
        run = run_once(factory, BASE.with_(utilization=0.6))
        assert isinstance(run, PPAResult)

    def test_failure_wrapped(self):
        run = run_once(factory, BASE.with_(utilization=0.95))
        assert not run.valid
        assert "Tap" in run.reason or "utilization" in run.reason


class TestUtilizationSweep:
    def test_area_decreases_with_utilization(self):
        runs = utilization_sweep(factory, BASE, (0.5, 0.6, 0.7))
        areas = [r.core_area_um2 for r in runs if isinstance(r, PPAResult)]
        assert areas == sorted(areas, reverse=True)

    def test_max_valid_utilization(self):
        best, runs = max_valid_utilization(
            factory, BASE, utilizations=(0.5, 0.7, 0.95))
        assert best == 0.7
        assert len(runs) == 3


class TestFrequencySweep:
    def test_tight_target_buys_area(self):
        runs = frequency_sweep(factory, BASE.with_(utilization=0.6),
                               targets_ghz=(0.5, 3.0))
        ok = [r for r in runs if isinstance(r, PPAResult)]
        assert len(ok) == 2
        # Gate sizing trades area for speed at aggressive targets.
        assert ok[1].cell_area_um2 >= ok[0].cell_area_um2
        assert all(r.total_power_mw > 0 for r in ok)


class TestLayerSweeps:
    def test_efficiency_sweep_labels(self):
        points = layer_count_efficiency_sweep(
            factory, BASE.with_(utilization=0.6), layer_counts=(6, 12))
        assert [p.label for p in points] == ["FM6BM6", "FM12BM12"]
        assert all(p.result is not None for p in points)


class TestDoe:
    def test_layer_splits(self):
        splits = layer_splits(12)
        assert (6, 6) in splits and (10, 2) in splits
        assert all(f + b == 12 for f, b in splits)

    def test_pin_density_doe_small(self):
        clouds = pin_density_doe(
            factory, BASE, fractions=(0.04, 0.5),
            utilizations=(0.5, 0.6, 0.7),
        )
        assert len(clouds) == 2
        for cloud in clouds:
            assert cloud.label.startswith("FFET FM12BM12 FP")
            assert len(cloud.results) >= 3
            assert cloud.ellipse is not None
            assert cloud.merit > 0

    def test_cooptimization_rows(self):
        rows = cooptimization_table(
            factory, BASE, fractions=(0.5,), total_layers=6,
            utilization=0.6, keep_top=2,
        )
        assert 1 <= len(rows) <= 2
        for row in rows:
            assert isinstance(row, CooptRow)
            assert row.front_layers + row.back_layers == 6
            assert row.pattern.startswith("FM")
