"""Monte-Carlo engine: determinism, caching, quarantine, signoff, CLI."""

from __future__ import annotations

import dataclasses
import json
import threading
import time

import pytest

from repro.cli import main
from repro.core import FlowCache, FlowConfig, Tracer, run_flow
from repro.core.cache import netlist_fingerprint
from repro.core.flow import FLOW_STAGES, artifact_key, stage_keys
from repro.core.locking import LOCK_TIMEOUT_ENV
from repro.core.stages import StageStore
from repro.sta import TimingGraph
from repro.synth import (
    RiscvConfig,
    generate_counter,
    generate_riscv_core,
    generate_rv16_sram,
)
from repro.variation import (
    SAMPLE_BLOCK,
    FailedSample,
    SampleResult,
    VariationModel,
    format_signoff,
    nominal_bundle,
    run_monte_carlo,
    run_samples,
    sigma_comparison_table,
    signoff,
)

from .reference.variation import evaluate_sample


def counter_factory():
    return generate_counter(8)


CONFIG = FlowConfig(utilization=0.5)
MODEL = VariationModel.for_arch("ffet", overlay_sigma_nm=2.0)


@pytest.fixture(scope="module")
def bundle():
    return nominal_bundle(counter_factory, CONFIG)


def bits(results) -> list[dict]:
    """Every field of every result, floats by ``float.hex``."""
    return [{k: v.hex() if isinstance(v, float) else v
             for k, v in dataclasses.asdict(r).items()} for r in results]


class TestEngine:
    def test_block_partition_does_not_change_results(self, bundle):
        """Sample i depends on (root seed, i) only: not on the study
        size, on its block, or on its position in the block."""
        small, _ = run_samples(bundle, CONFIG, MODEL, 16, seed=11)
        large, _ = run_samples(bundle, CONFIG, MODEL, 100, seed=11)
        assert 100 > SAMPLE_BLOCK
        assert bits(large[:16]) == bits(small)

    def test_samples_are_index_ordered_and_seeded(self, bundle):
        good, bad = run_samples(bundle, CONFIG, MODEL, 6, seed=5)
        assert not bad
        assert [s.index for s in good] == list(range(6))
        assert len({s.seed for s in good}) == 6

    def test_zero_samples_is_empty_not_an_error(self, bundle):
        good, bad = run_samples(bundle, CONFIG, MODEL, 0, seed=0)
        assert good == [] and bad == []
        with pytest.raises(ValueError):
            run_samples(bundle, CONFIG, MODEL, -1, seed=0)

    def test_zero_sigma_reproduces_the_nominal_point(self, bundle):
        nothing = VariationModel.for_arch("ffet", overlay_sigma_nm=0.0,
                                          cd_sigma=0.0, rc_sigma=0.0)
        good, _ = run_samples(bundle, CONFIG, nothing, 3, seed=0)
        for sample in good:
            assert sample.achieved_frequency_ghz == pytest.approx(
                bundle.result.achieved_frequency_ghz)
            assert sample.total_power_mw == pytest.approx(
                bundle.result.total_power_mw)

    def test_failed_sample_is_quarantined_not_fatal(self, bundle,
                                                    monkeypatch):
        """A block that raises quarantines its own samples; the other
        block of the study comes back exactly as in a clean run."""
        import repro.variation.engine as engine_mod

        samples = SAMPLE_BLOCK + 6
        clean, _ = run_samples(bundle, CONFIG, MODEL, samples, seed=2)
        real = engine_mod.evaluate_block

        def flaky(netlist, library, extraction, config, block, graph):
            if block[0].index == 0:
                raise RuntimeError("injected block failure")
            return real(netlist, library, extraction, config, block, graph)

        monkeypatch.setattr(engine_mod, "evaluate_block", flaky)
        good, bad = run_samples(bundle, CONFIG, MODEL, samples, seed=2)
        assert [f.index for f in bad] == list(range(SAMPLE_BLOCK))
        assert all(isinstance(f, FailedSample) for f in bad)
        assert {(f.cause, f.reason) for f in bad} \
            == {("RuntimeError", "injected block failure")}
        assert [f.seed for f in bad] \
            == [MODEL.draw(2, i).seed for i in range(SAMPLE_BLOCK)]
        assert bits(good) == bits(clean[SAMPLE_BLOCK:])

    def test_negative_sample_count_fails_before_the_nominal(self,
                                                            tmp_path):
        calls = []

        def factory():
            calls.append(1)
            return generate_counter(8)

        cache = FlowCache(tmp_path / "cache")
        with pytest.raises(ValueError, match="non-negative"):
            run_monte_carlo(factory, CONFIG, model=MODEL, samples=-1,
                            cache=cache)
        assert calls == []
        assert cache.info()["entries"] == 0

    def test_samples_add_no_sta_or_power_telemetry(self, tmp_path):
        """The study's trace reads the nominal flow's power and STA
        work, however many samples it times."""
        study = Tracer(label="mc")
        run_monte_carlo(counter_factory, CONFIG, model=MODEL, samples=4,
                        seed=1, cache=FlowCache(tmp_path / "cache"),
                        tracer=study)
        flow = Tracer(label="flow")
        run_flow(counter_factory, CONFIG, tracer=flow)
        study, flow = study.finish(), flow.finish()

        def power(trace):
            return {k: v for k, v in trace.gauges.items()
                    if k.startswith("power.")}

        assert power(study) and power(study) == power(flow)
        assert study.counters["kernel.sta.delay_evals"] \
            == flow.counters["kernel.sta.delay_evals"]
        assert study.counters["mc.samples"] == 4

    def test_nominal_bundle_round_trips_the_cache(self, tmp_path):
        cache = FlowCache(tmp_path / "cache")
        cold = nominal_bundle(counter_factory, CONFIG, cache=cache)
        assert not cold.cached
        warm = nominal_bundle(counter_factory, CONFIG, cache=cache)
        assert warm.cached
        assert warm.result == cold.result
        # And the bundle is invalidated with everything else on clear().
        assert cache.clear() > 0
        assert not nominal_bundle(counter_factory, CONFIG,
                                  cache=cache).cached

    def test_nominal_key_is_not_the_terminal_stage_key(self, tmp_path,
                                                       monkeypatch):
        """The nominal lease must not take the lock its own cold walk
        takes for the final stage, or the walk would wait on itself."""
        fp = netlist_fingerprint(counter_factory())
        assert artifact_key("nominal", CONFIG, fp) \
            != stage_keys(CONFIG, fp)[FLOW_STAGES[-1]]
        monkeypatch.setenv(LOCK_TIMEOUT_ENV, "30")
        tracer = Tracer(label="cold nominal")
        cold = nominal_bundle(counter_factory, CONFIG,
                              cache=FlowCache(tmp_path), tracer=tracer)
        assert not cold.cached
        flights = [k for k in tracer.finish().counters
                   if k.startswith("stage_cache.singleflight.")]
        assert flights == []

    def test_concurrent_nominal_loads_the_published_bundle(
            self, bundle, tmp_path, monkeypatch):
        monkeypatch.setenv(LOCK_TIMEOUT_ENV, "60")
        key = artifact_key("nominal", CONFIG,
                           netlist_fingerprint(counter_factory()))
        holder = StageStore(FlowCache(tmp_path))
        _, lease = holder.fetch_or_lease("nominal", key)
        assert lease is not None
        got: list = []
        waiter = threading.Thread(target=lambda: got.append(nominal_bundle(
            counter_factory, CONFIG, cache=FlowCache(tmp_path))))
        waiter.start()
        time.sleep(0.2)  # let the waiter reach the poll loop
        holder.put("nominal", key, {"bundle": bundle})
        lease.release()
        waiter.join(timeout=60)
        assert got[0].cached  # loaded, not recomputed
        assert got[0].result == bundle.result

    def test_run_monte_carlo_traces_and_counts(self):
        tracer = Tracer(label="mc test")
        mc = run_monte_carlo(counter_factory, CONFIG, model=MODEL,
                             samples=4, seed=1, tracer=tracer)
        assert len(mc.samples) == 4
        assert mc.seed == 1
        trace = tracer.finish()
        names = [s.name for s in trace.spans]
        assert "mc.nominal" in names
        assert "mc.samples" in names
        assert trace.counters["mc.samples"] == 4

    def test_default_seed_is_the_config_seed(self):
        mc = run_monte_carlo(counter_factory, CONFIG.with_(seed=9),
                             model=MODEL, samples=2)
        assert mc.seed == 9


class TestSignoff:
    @pytest.fixture(scope="class")
    def mc(self, bundle):
        good, bad = run_samples(bundle, CONFIG, MODEL, 12, seed=4)
        from repro.variation.engine import MonteCarloResult
        return MonteCarloResult(config=CONFIG, model=MODEL, seed=4,
                                nominal=bundle.result, samples=good,
                                failed=bad)

    def test_report_fields(self, mc):
        report = signoff(mc)
        assert report.samples == 12
        assert report.metrics["frequency_ghz"].n == 12
        assert report.fmax_3sigma_ghz == pytest.approx(
            report.metrics["frequency_ghz"].mean
            - 3 * report.metrics["frequency_ghz"].std)
        assert 0.0 <= report.timing_yield <= 1.0
        assert report.ellipse is not None

    def test_report_is_json_safe_and_deterministic(self, mc):
        a = json.dumps(signoff(mc).to_dict(), sort_keys=True)
        b = json.dumps(signoff(mc).to_dict(), sort_keys=True)
        assert a == b

    def test_formatting_smoke(self, mc):
        report = signoff(mc)
        text = format_signoff(report)
        assert "3-sigma Fmax" in text
        assert "frequency_ghz" in text
        table = sigma_comparison_table([report, report])
        assert table.count(report.label) == 2

    def test_empty_study_refuses_signoff(self, mc):
        from repro.variation.engine import MonteCarloResult
        empty = MonteCarloResult(config=CONFIG, model=MODEL, seed=0,
                                 nominal=mc.nominal)
        with pytest.raises(ValueError):
            signoff(empty)


class TestCliMc:
    SMALL = ["mc", "--xlen", "4", "--nregs", "4", "--utilization", "0.5",
             "--samples", "4", "--seed", "3"]

    @pytest.fixture(autouse=True)
    def _cache(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))

    def test_mc_command_writes_deterministic_json(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main([*self.SMALL, "--json", str(a)]) == 0
        assert main([*self.SMALL, "--json", str(b)]) == 0
        assert a.read_text() == b.read_text()
        payload = json.loads(a.read_text())
        assert payload["samples"] == 4
        assert len(payload["sample_rows"]) == 4
        out = capsys.readouterr().out
        assert "variation signoff" in out
        assert "nominal flow served from the cache" in out  # second run

    def test_mc_trace_written(self, capsys, tmp_path):
        trace_dir = tmp_path / "traces"
        assert main([*self.SMALL, "--no-cache",
                     "--trace", str(trace_dir)]) == 0
        assert list(trace_dir.glob("*.jsonl"))

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_sample_count_below_one_is_rejected_at_parse_time(
            self, count, capsys, tmp_path):
        argv = list(self.SMALL)
        argv[argv.index("--samples") + 1] = count
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "--samples" in capsys.readouterr().err
        assert not (tmp_path / "cache").exists()


#: rv8 FFET and CFET, and rv8_sram for the macro launch arcs.
ORACLE_DESIGNS = {
    "rv8_ffet": (lambda: generate_riscv_core(
        RiscvConfig(xlen=8, nregs=8, name="rv8")), FlowConfig(seed=0)),
    "rv8_cfet": (lambda: generate_riscv_core(
        RiscvConfig(xlen=8, nregs=8, name="rv8")),
        FlowConfig(seed=0, arch="cfet", back_layers=0,
                   backside_pin_fraction=0.0)),
    "rv8_sram": (lambda: generate_rv16_sram(
        xlen=8, nregs=8, words=16, name="rv8_sram"), FlowConfig(seed=0)),
}


@pytest.mark.parametrize("design", sorted(ORACLE_DESIGNS))
def test_blocks_match_the_one_sample_oracle(design):
    """Every sample of a study that crosses a block boundary equals,
    bit for bit, the oracle's scaled-copy evaluation of that sample."""
    factory, config = ORACLE_DESIGNS[design]
    nominal = nominal_bundle(factory, config)
    model = VariationModel.for_arch(config.arch)
    samples = SAMPLE_BLOCK + 6
    good, bad = run_samples(nominal, config, model, samples, seed=3)
    assert not bad and len(good) == samples
    graph = TimingGraph(nominal.netlist, nominal.library)
    oracle = [evaluate_sample(nominal.netlist, nominal.library,
                              nominal.extraction, config,
                              model.draw(3, i), graph=graph)
              for i in range(samples)]
    assert bits(good) == bits(oracle)
