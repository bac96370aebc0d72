"""Structured flow errors: hierarchy, classification, wrapping, pickling."""

from __future__ import annotations

import pickle

import pytest

from repro.core.errors import (
    DecompositionError,
    FatalError,
    FlowError,
    GuardViolation,
    InjectedFault,
    MergeError,
    RoutingError,
    RunTimeout,
    TransientError,
    is_transient,
    wrap_stage_error,
)


class TestHierarchy:
    def test_everything_is_a_flow_error(self):
        for cls in (TransientError, FatalError, RunTimeout, RoutingError,
                    MergeError, DecompositionError, GuardViolation,
                    InjectedFault):
            assert issubclass(cls, FlowError)
            assert issubclass(cls, RuntimeError)

    def test_transient_split(self):
        assert TransientError.transient
        assert RunTimeout.transient
        assert InjectedFault.transient
        assert not FatalError.transient
        assert not RoutingError.transient
        assert not GuardViolation.transient

    def test_merge_and_decomposition_stay_value_errors(self):
        """Callers that caught the historical ValueError still catch."""
        assert issubclass(MergeError, ValueError)
        assert issubclass(DecompositionError, ValueError)

    def test_context_fields(self):
        err = RoutingError("no path", "routing", "cfg-a",
                           cause="RoutingError")
        assert err.stage == "routing"
        assert err.config_label == "cfg-a"
        assert err.cause == "RoutingError"
        assert str(err) == "no path"

    def test_one_line_is_structured(self):
        err = RoutingError("no path to sink", "routing", "cfg-a")
        line = err.one_line()
        assert "stage=routing" in line
        assert "config='cfg-a'" in line
        assert "no path to sink" in line
        assert "\n" not in line


class TestClassify:
    def test_native_transients(self):
        assert is_transient(OSError("disk"))
        assert is_transient(MemoryError())
        assert is_transient(ConnectionError())

    def test_native_fatals(self):
        assert not is_transient(ValueError("bad"))
        assert not is_transient(KeyError("x"))

    def test_flow_errors_use_their_own_flag(self):
        assert is_transient(InjectedFault("x"))
        assert not is_transient(GuardViolation("x"))


class TestWrapStageError:
    def test_wraps_native_exception(self):
        exc = ValueError("bad geometry")
        err = wrap_stage_error(exc, "placement", "cfg")
        assert isinstance(err, FatalError)
        assert err.stage == "placement"
        assert err.config_label == "cfg"
        assert err.cause == "ValueError"
        assert err.__cause__ is exc

    def test_wraps_native_transient(self):
        err = wrap_stage_error(OSError("fork failed"), "routing")
        assert isinstance(err, TransientError)
        assert err.cause == "OSError"

    def test_annotates_flow_error_in_place(self):
        exc = RoutingError("no path")
        err = wrap_stage_error(exc, "routing", "cfg")
        assert err is exc
        assert err.stage == "routing"
        assert err.config_label == "cfg"

    def test_does_not_clobber_existing_context(self):
        exc = RoutingError("no path", "routing", "original")
        err = wrap_stage_error(exc, "outer_stage", "other")
        assert err.stage == "routing"
        assert err.config_label == "original"


class TestPickling:
    """Errors cross the process-pool boundary; pickling must keep context."""

    @pytest.mark.parametrize("cls", [
        FlowError, TransientError, FatalError, RunTimeout, RoutingError,
        MergeError, DecompositionError, GuardViolation, InjectedFault])
    def test_round_trip_keeps_fields(self, cls):
        err = cls("boom", "sta", "cfg-x", cause="Boom")
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is cls
        assert str(back) == "boom"
        assert back.stage == "sta"
        assert back.config_label == "cfg-x"
        assert back.cause == "Boom"
        assert back.transient == cls.transient
