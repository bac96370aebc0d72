"""CLI and result-serialization tests."""

import json

import pytest

from repro.cli import build_parser, main
from repro.core import FlowConfig
from repro.core.io import result_to_dict, results_to_csv, results_to_json
from repro.core.runner import run_once
from repro.synth import generate_multiplier


@pytest.fixture(scope="module")
def sample_runs():
    config = FlowConfig(arch="ffet", utilization=0.6,
                        backside_pin_fraction=0.5)
    good = run_once(lambda: generate_multiplier(5), config)
    bad = run_once(lambda: generate_multiplier(5),
                   config.with_(utilization=0.95))
    return [good, bad]


class TestSerialization:
    def test_result_dict_fields(self, sample_runs):
        good = result_to_dict(sample_runs[0])
        assert good["valid"] is True
        assert good["arch"] == "ffet"
        assert good["achieved_frequency_ghz"] > 0
        assert "wns_ps" in good and "switching_mw" in good

    def test_failed_run_dict(self, sample_runs):
        bad = result_to_dict(sample_runs[1])
        assert bad["valid"] is False
        assert "failure" in bad

    def test_json_round_trip(self, sample_runs):
        rows = json.loads(results_to_json(sample_runs))
        assert len(rows) == 2
        assert rows[0]["label"].startswith("FFET")

    def test_csv_has_header_and_rows(self, sample_runs):
        text = results_to_csv(sample_runs)
        lines = text.strip().splitlines()
        assert lines[0].startswith("label,")
        assert len(lines) == 3


class TestCli:
    def test_parser_subcommands(self):
        parser = build_parser()
        args = parser.parse_args(["run", "--arch", "cfet",
                                  "--utilization", "0.6"])
        assert args.arch == "cfet"
        assert args.func.__name__ == "cmd_run"

    def test_run_command(self, capsys, tmp_path):
        out = tmp_path / "result.json"
        code = main(["run", "--xlen", "8", "--nregs", "8",
                     "--utilization", "0.6", "--json", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "FFET" in printed
        data = json.loads(out.read_text())
        assert data[0]["valid"] is True

    def test_characterize_command(self, capsys, tmp_path):
        lib_file = tmp_path / "ffet.lib"
        code = main(["characterize", "--liberty", str(lib_file)])
        assert code == 0
        assert "KPI Diff" in capsys.readouterr().out
        assert lib_file.read_text().startswith("library (")

    def test_sweep_command(self, capsys, tmp_path):
        csv_file = tmp_path / "sweep.csv"
        code = main(["sweep", "utilization", "--xlen", "8", "--nregs", "8",
                     "--points", "0.5", "0.6", "--csv", str(csv_file)])
        assert code == 0
        assert csv_file.exists()

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])
