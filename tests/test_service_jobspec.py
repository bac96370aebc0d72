"""Job-spec validation and expansion (`repro.service.jobspec`)."""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro.cli import _config_from, build_parser, main
from repro.core import sweeps
from repro.core.config import FlowConfig
from repro.core.ppa import FailedRun
from repro.core.runner import RetryPolicy, RunRecord, SweepRunner
from repro.netlist import Netlist
from repro.service.jobspec import (
    DesignSpec,
    JobSpecError,
    parse_jobspec,
)

MULT = {"type": "multiplier", "bits": 4}
BASE_CONFIG = {"arch": "ffet", "backside_pin_fraction": 0.5,
               "utilization": 0.5}


def spec(**overrides) -> dict:
    doc = {"kind": "run", "design": dict(MULT),
           "config": dict(BASE_CONFIG)}
    doc.update(overrides)
    return doc


class TestRunSpecs:
    def test_minimal_run_expands_to_one_item(self):
        job = parse_jobspec(spec())
        assert job.kind == "run"
        assert len(job.items) == 1
        assert isinstance(job.items[0].config, FlowConfig)
        assert job.items[0].config.utilization == 0.5
        assert job.priority == 0

    def test_empty_config_uses_flowconfig_defaults(self):
        job = parse_jobspec({"kind": "run"})
        assert job.items[0].config == FlowConfig()
        assert job.design.type == "riscv"

    def test_unknown_config_field_is_rejected(self):
        with pytest.raises(JobSpecError, match="unknown config fields"):
            parse_jobspec(spec(config={"utilizzzation": 0.5}))

    def test_invalid_config_value_is_rejected(self):
        with pytest.raises(JobSpecError, match="invalid config"):
            parse_jobspec(spec(config={"arch": "finfet"}))

    @pytest.mark.parametrize("field, value", [
        ("max_fanout", 1), ("max_fanout", 0),
        ("target_frequency_ghz", 0), ("target_frequency_ghz", -1.5),
        ("gcell_tracks", 0),
    ])
    def test_values_that_would_stall_a_worker_are_rejected(self, field,
                                                          value):
        with pytest.raises(JobSpecError, match=field):
            parse_jobspec(spec(config={**BASE_CONFIG, field: value}))

    def test_zero_frequency_sweep_point_is_rejected(self):
        with pytest.raises(JobSpecError, match="target_frequency_ghz"):
            parse_jobspec(spec(kind="sweep", axis="frequency",
                               targets=[1.0, 0]))

    def test_docs_cfet_example_matches_repro_run_arch_cfet(self):
        """docs/service.md submits this spec; it runs what
        ``repro run --arch cfet`` runs."""
        job = parse_jobspec({"kind": "run", "config": {"arch": "cfet"}})
        cli = _config_from(build_parser().parse_args(["run", "--arch",
                                                      "cfet"]))
        assert job.items[0].config == cli
        assert (cli.back_layers, cli.backside_pin_fraction) == (0, 0.0)

    def test_no_back_layers_matches_repro_run(self):
        job = parse_jobspec({"kind": "run", "config": {"back_layers": 0}})
        cli = _config_from(build_parser().parse_args(["run",
                                                      "--back-layers", "0"]))
        assert job.items[0].config == cli
        assert cli.backside_pin_fraction == 0.0

    def test_explicit_side_fields_are_still_checked(self):
        with pytest.raises(JobSpecError, match="frontside-only"):
            parse_jobspec(spec(config={"arch": "cfet", "back_layers": 0,
                                       "backside_pin_fraction": 0.5}))

    def test_non_object_spec_is_rejected(self):
        with pytest.raises(JobSpecError):
            parse_jobspec(["kind", "run"])

    def test_unknown_kind_is_rejected(self):
        with pytest.raises(JobSpecError, match="unknown job kind"):
            parse_jobspec(spec(kind="flow"))


class TestDesigns:
    def test_multiplier_factory_builds_a_netlist(self):
        job = parse_jobspec(spec())
        assert isinstance(job.design(), Netlist)

    def test_design_factory_is_picklable(self):
        design = parse_jobspec(spec()).design
        clone = pickle.loads(pickle.dumps(design))
        assert clone == design
        assert isinstance(clone(), Netlist)

    def test_riscv_design_fields(self):
        job = parse_jobspec(spec(design={"type": "riscv", "xlen": 8,
                                         "nregs": 8}))
        assert job.design == DesignSpec(type="riscv", xlen=8, nregs=8)

    def test_unknown_design_type_is_rejected(self):
        with pytest.raises(JobSpecError, match="unknown design type"):
            parse_jobspec(spec(design={"type": "fpga"}))

    def test_design_bounds_are_enforced(self):
        with pytest.raises(JobSpecError, match="bits"):
            parse_jobspec(spec(design={"type": "multiplier", "bits": 1}))

    def test_portfolio_designs_are_accepted(self):
        for dtype in ("rv16_sram", "rv16_cache", "rv16_tile",
                      "counter", "fir"):
            job = parse_jobspec(spec(design={"type": dtype}))
            assert job.design.type == dtype

    def test_macro_design_factory_declares_its_macros(self):
        design = parse_jobspec(spec(design={"type": "rv16_sram"})).design
        clone = pickle.loads(pickle.dumps(design))
        netlist = clone()
        assert isinstance(netlist, Netlist)
        assert "u_dmem" in netlist.attributes.get("macros", {})


@pytest.mark.parametrize("axis", sweeps.SWEEP_AXES)
def test_spec_defaults_expand_like_repro_sweep(axis, monkeypatch, capsys):
    """A sweep spec with no values expands to the configs ``repro sweep
    <axis>`` runs with no values, in the same order."""
    ran: list[FlowConfig] = []

    def capture(self, factory, configs):
        ran.extend(configs)
        return [RunRecord(c, FailedRun(label=c.label,
                                       target_utilization=c.utilization,
                                       reason="not run"), 0.0)
                for c in configs]

    monkeypatch.setattr(SweepRunner, "run_records", capture)
    assert main(["sweep", axis, "--no-cache"]) == 0
    config = _config_from(build_parser().parse_args(["sweep", axis]))
    job = parse_jobspec({"kind": "sweep", "axis": axis,
                         "config": dataclasses.asdict(config)})
    assert [item.config for item in job.items] == ran


class TestSweepExpansion:
    def test_layers_axis_expands_splits(self):
        job = parse_jobspec(spec(kind="sweep", axis="layers",
                                 splits=["9:3", "8:4"]))
        assert [i.label for i in job.items] == ["FM9BM3", "FM8BM4"]
        assert job.items[0].config.front_layers == 9
        assert job.items[0].config.back_layers == 3
        # Non-split knobs come from the shared config block.
        assert all(i.config.utilization == 0.5 for i in job.items)

    def test_utilization_axis_expands_points(self):
        job = parse_jobspec(spec(kind="sweep", axis="utilization",
                                 points=[0.5, 0.6]))
        assert [i.config.utilization for i in job.items] == [0.5, 0.6]

    def test_frequency_axis_expands_targets(self):
        job = parse_jobspec(spec(kind="sweep", axis="frequency",
                                 targets=[1.0, 2.0]))
        assert [i.config.target_frequency_ghz
                for i in job.items] == [1.0, 2.0]

    def test_cts_axis_is_the_full_cross_product(self):
        job = parse_jobspec(spec(kind="sweep", axis="cts",
                                 points=[0.5], splits=["6:6", "12:12"]))
        assert len(job.items) == 4  # 1 util x 2 splits x 2 modes
        assert {i.config.cts_mode for i in job.items} == \
            {"single", "dual"}

    def test_unknown_axis_is_rejected(self):
        with pytest.raises(JobSpecError, match="unknown sweep axis"):
            parse_jobspec(spec(kind="sweep", axis="voltage"))

    def test_bad_split_is_rejected(self):
        with pytest.raises(JobSpecError, match="invalid layer split"):
            parse_jobspec(spec(kind="sweep", axis="layers",
                               splits=["9x3"]))

    def test_list_splits_are_accepted(self):
        job = parse_jobspec(spec(kind="sweep", axis="layers",
                                 splits=[[7, 5]]))
        assert job.items[0].config.front_layers == 7


class TestMcSpecs:
    def test_mc_defaults(self):
        job = parse_jobspec(spec(kind="mc"))
        assert job.mc.samples == 32
        assert len(job.items) == 1

    def test_mc_params(self):
        job = parse_jobspec(spec(kind="mc",
                                 mc={"samples": 8, "seed": 3,
                                     "overlay_sigma_nm": 1.0}))
        assert (job.mc.samples, job.mc.seed) == (8, 3)
        assert job.mc.overlay_sigma_nm == 1.0

    def test_mc_sample_bounds(self):
        with pytest.raises(JobSpecError, match="samples"):
            parse_jobspec(spec(kind="mc", mc={"samples": 0}))


class TestPriorityAndQuota:
    def test_priority_bounds(self):
        assert parse_jobspec(spec(priority=7)).priority == 7
        with pytest.raises(JobSpecError, match="priority"):
            parse_jobspec(spec(priority=101))
        with pytest.raises(JobSpecError, match="priority"):
            parse_jobspec(spec(priority=1.5))

    def test_quota_builds_the_retry_policy(self):
        job = parse_jobspec(spec(quota={"retries": 2, "timeout_s": 9}),
                            default_retry=RetryPolicy())
        assert job.retry.max_attempts == 2
        assert job.retry.timeout_s == 9.0

    def test_quota_defaults_pass_through(self):
        default = RetryPolicy(max_attempts=5, timeout_s=60.0)
        job = parse_jobspec(spec(), default_retry=default)
        assert job.retry is default

    def test_quota_bounds(self):
        with pytest.raises(JobSpecError, match="retries"):
            parse_jobspec(spec(quota={"retries": 0}))
        with pytest.raises(JobSpecError, match="timeout_s"):
            parse_jobspec(spec(quota={"timeout_s": -1}))

    def test_max_runs_quota_rejects_big_jobs(self):
        doc = spec(kind="sweep", axis="utilization",
                   points=[0.5, 0.6, 0.7])
        with pytest.raises(JobSpecError, match="per-job quota"):
            parse_jobspec(doc, max_runs=2)
        assert len(parse_jobspec(doc, max_runs=3).items) == 3

    def test_tag_length_is_bounded(self):
        with pytest.raises(JobSpecError, match="tag"):
            parse_jobspec(spec(tag="x" * 201))


class TestFingerprint:
    def test_fingerprint_is_content_stable(self):
        a = parse_jobspec(spec(tag="a"))
        b = parse_jobspec(spec(tag="a"))
        c = parse_jobspec(spec(tag="b"))
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != c.fingerprint()
