"""Fault injection: grammar, determinism, firing, and healthy-path purity."""

from __future__ import annotations

import pytest

from repro.core import FlowConfig, run_flow
from repro.core import faults as faults_mod
from repro.core.errors import FatalError, FlowError, InjectedFault
from repro.core.faults import FAULTS_ENV, FaultClause, FaultPlan, parse_clause

from .golden_cases import MultiplierFactory

FACTORY = MultiplierFactory(4)
BASE = FlowConfig(arch="ffet", backside_pin_fraction=0.5, utilization=0.5)


class TestGrammar:
    def test_minimal_clause(self):
        c = parse_clause("placement:raise")
        assert c.stage == "placement"
        assert c.mode == "raise"
        assert c.rate == 1.0
        assert not c.first_attempt_only

    def test_all_options(self):
        c = parse_clause("sta:die:first:rate=0.25:duration=7:seed=3")
        assert (c.stage, c.mode) == ("sta", "die")
        assert c.rate == 0.25
        assert c.first_attempt_only
        assert c.duration_s == 7.0
        assert c.seed == 3

    def test_plan_splits_on_commas(self):
        plan = FaultPlan.from_spec("placement:raise, routing:corrupt")
        assert len(plan.clauses) == 2
        assert plan.active

    def test_empty_spec_is_inert(self):
        assert not FaultPlan.from_spec(None).active
        assert not FaultPlan.from_spec("  ").active

    @pytest.mark.parametrize("bad", [
        "placement", "placement:explode", "placement:raise:rate=2",
        "placement:raise:wat", "placement:raise:color=red"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_clause(bad)


class TestDeterminism:
    def test_rate_draw_is_pure(self):
        c = FaultClause(stage="sta", mode="raise", rate=0.5, seed=11)
        draws = [c.fires("sta", "run-a", 1) for _ in range(5)]
        assert len(set(draws)) == 1

    def test_rate_zero_never_fires(self):
        c = FaultClause(stage="sta", mode="raise", rate=0.0)
        assert not any(c.fires("sta", f"run-{i}", 1) for i in range(20))

    def test_rate_gates_by_run_identity(self):
        c = FaultClause(stage="sta", mode="raise", rate=0.5, seed=0)
        outcomes = {c.fires("sta", f"run-{i}", 1) for i in range(64)}
        assert outcomes == {True, False}  # some fire, some don't

    def test_wildcard_stage(self):
        c = FaultClause(stage="*", mode="raise")
        assert c.fires("placement", "x", 1)
        assert c.fires("sta", "x", 1)

    def test_first_attempt_only(self):
        c = FaultClause(stage="sta", mode="raise", first_attempt_only=True)
        assert c.fires("sta", "x", 1)
        assert not c.fires("sta", "x", 2)


class TestFiring:
    def test_raise_mode_is_transient(self):
        plan = FaultPlan.from_spec("placement:raise")
        with pytest.raises(InjectedFault) as info:
            run_flow(FACTORY, BASE, faults=plan)
        assert info.value.stage == "placement"
        assert info.value.transient

    def test_fatal_mode(self):
        plan = FaultPlan.from_spec("sta:fatal")
        with pytest.raises(FatalError) as info:
            run_flow(FACTORY, BASE, faults=plan)
        assert info.value.stage == "sta"
        assert not info.value.transient

    def test_corrupt_on_unsupported_stage_is_loud(self):
        """corrupt only damages stages that have corruptible artifacts."""
        plan = FaultPlan.from_spec("sta:corrupt")
        with pytest.raises(FlowError):
            run_flow(FACTORY, BASE, faults=plan)

    def test_second_attempt_clean_after_first_only_clause(self):
        plan = FaultPlan.from_spec("placement:raise:first")
        faults_mod.set_attempt(1)
        try:
            with pytest.raises(InjectedFault):
                run_flow(FACTORY, BASE, faults=plan)
            faults_mod.set_attempt(2)
            result = run_flow(FACTORY, BASE, faults=plan)
            assert result.valid
        finally:
            faults_mod.set_attempt(1)


class TestHealthyPathPurity:
    """An inert plan (and the harness being importable at all) must not
    change healthy results bit for bit."""

    def test_inert_plan_is_bit_for_bit_neutral(self):
        baseline = run_flow(FACTORY, BASE)
        with_plan = run_flow(FACTORY, BASE, faults=FaultPlan())
        assert with_plan == baseline

    def test_env_plan_detection(self, monkeypatch):
        monkeypatch.delenv(FAULTS_ENV, raising=False)
        assert not faults_mod.faults_active()
        assert not faults_mod.plan_from_env().active
        monkeypatch.setenv(FAULTS_ENV, "sta:raise")
        assert faults_mod.faults_active()
        assert faults_mod.plan_from_env().active
