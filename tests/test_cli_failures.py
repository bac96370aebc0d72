"""CLI failure handling: exit codes, structured messages, new flags."""

from __future__ import annotations

import pytest

from repro.cli import _retry_from, build_parser, main
from repro.core.faults import FAULTS_ENV
from repro.core.guard import GUARD_ENV


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch, tmp_path):
    """Each test gets a private cache dir and no inherited fault/guard
    state.  setenv (not delenv) so monkeypatch always registers a
    restore: the CLI exports --inject-faults/--guard into os.environ,
    and that must not leak into other test files."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setenv(FAULTS_ENV, "")  # empty spec == faults inactive
    monkeypatch.setenv(GUARD_ENV, "")   # empty mode == strict default


SMALL = ["--xlen", "4", "--nregs", "4"]
SWEEP = ["sweep", "utilization", *SMALL, "--points", "0.5", "0.6",
         "--retries", "2"]


class TestExitCodes:
    def test_healthy_sweep_exits_zero(self, capsys):
        assert main(SWEEP) == 0

    def test_quarantined_sweep_exits_nonzero(self, capsys):
        assert main([*SWEEP, "--inject-faults", "routing:raise"]) == 1
        out = capsys.readouterr().out
        assert "QUARANTINED" in out
        assert "quarantined" in out  # stats line too

    def test_keep_going_accepts_partial_results(self, capsys):
        assert main([*SWEEP, "--inject-faults", "routing:raise",
                     "--keep-going"]) == 0

    def test_sweep_completes_despite_failures(self, capsys):
        """Quarantine means every point reports, not that the sweep dies."""
        main([*SWEEP, "--inject-faults", "routing:raise"])
        out = capsys.readouterr().out
        assert out.count("QUARANTINED") == 2  # both points accounted for

    def test_bad_fault_spec_is_a_clean_error(self, capsys):
        assert main([*SWEEP, "--inject-faults", "nonsense"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "Traceback" not in err


class TestStructuredFailureLine:
    def test_failure_line_names_stage_and_cause(self, capsys):
        main([*SWEEP, "--inject-faults", "sta:fatal"])
        out = capsys.readouterr().out
        assert "stage=sta" in out
        assert "cause=FatalError" in out

    def test_run_failure_is_one_line_not_traceback(self, capsys):
        code = main(["run", *SMALL, "--inject-faults", "sta:fatal",
                     "--retries", "1"])
        assert code == 1
        captured = capsys.readouterr()
        assert "stage=sta" in captured.out
        assert "Traceback" not in captured.out + captured.err

    def test_run_keep_going_exits_zero(self, capsys):
        assert main(["run", *SMALL, "--inject-faults", "sta:fatal",
                     "--retries", "1", "--keep-going"]) == 0


class TestResumeFlag:
    def test_checkpoint_then_resume(self, tmp_path, capsys):
        ck = str(tmp_path / "sweep.ckpt")
        assert main([*SWEEP, "--checkpoint", ck, "--no-cache"]) == 0
        assert main([*SWEEP, "--checkpoint", ck, "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "2 resumed" in out

    def test_no_resume_recomputes(self, tmp_path, capsys):
        ck = str(tmp_path / "sweep.ckpt")
        main([*SWEEP, "--checkpoint", ck, "--no-cache"])
        main([*SWEEP, "--checkpoint", ck, "--no-cache", "--no-resume"])
        out = capsys.readouterr().out
        assert "resumed" not in out.splitlines()[-1]


class TestGuardFlag:
    def test_warn_mode_completes_with_violation(self, capsys):
        code = main(["run", *SMALL, "--guard", "warn",
                     "--inject-faults", "power:corrupt", "--retries", "1"])
        # warn mode: the run completes (possibly invalid), no quarantine
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err
        assert code in (0, 1)

    def test_strict_mode_quarantines_corruption(self, capsys):
        code = main(["run", *SMALL, "--guard", "strict",
                     "--inject-faults", "power:corrupt", "--retries", "1"])
        assert code == 1
        assert "cause=GuardViolation" in capsys.readouterr().out


class TestCacheEnvironment:
    def test_no_cache_env_disables_the_store(self, tmp_path, monkeypatch,
                                             capsys):
        """``$REPRO_NO_CACHE`` is the environment form of --no-cache."""
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        assert main(["run", *SMALL]) == 0
        written = [p for p in (tmp_path / "cache").rglob("*") if p.is_file()]
        assert written == []


class TestRetryFlagValues:
    """--retries below 1 and --timeout at or below 0 are usage errors
    on every command that takes them, before anything runs."""

    COMMANDS = {"run": ["run"], "sweep": ["sweep", "utilization"],
                "doe": ["doe", "pin-density"], "compare": ["compare"],
                "serve": ["serve"]}

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_retries_below_one_is_a_usage_error(self, command, value,
                                                 capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args([*self.COMMANDS[command],
                                       "--retries", value])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "--retries" in err

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize("value", ["0", "-5", "nan", "inf"])
    def test_timeout_not_positive_is_a_usage_error(self, command, value,
                                                    capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args([*self.COMMANDS[command],
                                       "--timeout", value])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "--timeout" in err

    def test_valid_values_set_the_policy(self):
        args = build_parser().parse_args(["run", "--retries", "1",
                                          "--timeout", "0.5"])
        policy = _retry_from(args)
        assert (policy.max_attempts, policy.timeout_s) == (1, 0.5)
