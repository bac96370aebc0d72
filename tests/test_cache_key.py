"""Properties of the terminal stage key and the result payload codec.

Stored results (and the Monte-Carlo nominal) are keyed from the flow's
final stage key, ``stage_keys(...)["power"]``.  The key contract: two
configs that could produce different PPA must get different keys;
annotations that cannot reach the flow (``tag``) must share one entry;
and changing the netlist or the code version always misses.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FlowConfig
from repro.core import stages as stages_mod
from repro.core.cache import (
    FINGERPRINT_SEP,
    FlowCache,
    netlist_fingerprint,
    result_from_payload,
    result_to_payload,
)
from repro.core.flow import FLOW_GRAPH, run_flow, stage_keys
from repro.core.ppa import FailedRun, PPAResult
from repro.core.stages import StageStore
from repro.netlist import Netlist
from repro.synth import (
    RiscvConfig,
    generate_counter,
    generate_multiplier,
    generate_riscv_core,
)

from .golden_cases import GOLDEN_PATH

BASE = FlowConfig()          # ffet FM12BM12, bp=0.5 — every field mutable
NETLIST_FP = "f" * 64
KEY = "cd" + "1" * 62

#: One hypothesis strategy of fresh values per PPA-relevant field.  Every
#: draw differs from the BASE value, so a perturbation must change the key.
FIELD_VALUES = {
    "arch": st.nothing(),    # cross-field constraints; covered explicitly
    "front_layers": st.integers(2, 11),
    "back_layers": st.integers(1, 11),
    "backside_pin_fraction": st.floats(0.0, 1.0)
        .map(lambda x: x + 0.0)  # normalize -0.0 -> 0.0 for json stability
        .filter(lambda x: x != BASE.backside_pin_fraction),
    "utilization": st.floats(0.3, 0.95)
        .filter(lambda x: x != BASE.utilization),
    "aspect_ratio": st.floats(0.5, 2.0)
        .filter(lambda x: x != BASE.aspect_ratio),
    "target_frequency_ghz": st.floats(0.2, 4.0)
        .filter(lambda x: x != BASE.target_frequency_ghz),
    "seed": st.integers(1, 10_000),
    "clock": st.sampled_from(["ck", "clock", "clk2"]),
    "gcell_tracks": st.integers(4, 64).filter(lambda x: x != BASE.gcell_tracks),
    "max_fanout": st.integers(2, 64).filter(lambda x: x != BASE.max_fanout),
    "cts_mode": st.just("dual"),
    "cts_back_fraction": st.floats(0.0, 1.0)
        .map(lambda x: x + 0.0)
        .filter(lambda x: x != BASE.cts_back_fraction),
    "activity": st.floats(0.01, 1.0).filter(lambda x: x != BASE.activity),
    "macro_halo_cpp": st.integers(0, 8)
        .filter(lambda x: x != BASE.macro_halo_cpp),
    "allow_bridging": st.just(True),
    "power_stripe_pitch_cpp": st.integers(4, 64),
    "rrr_iterations": st.integers(0, 32)
        .filter(lambda x: x != BASE.rrr_iterations),
    "sizing_iterations": st.integers(0, 32)
        .filter(lambda x: x != BASE.sizing_iterations),
    "refine_placement": st.just(True),
    "refine_iterations": st.integers(1, 5000)
        .filter(lambda x: x != BASE.refine_iterations),
}

PPA_FIELDS = sorted(set(FIELD_VALUES) - {"arch"})

#: FlowConfig fields that never reach the flow, so no stage reads them.
ANNOTATION_FIELDS = {"tag"}


def terminal_key(config: FlowConfig, netlist_fp: str = NETLIST_FP) -> str:
    return stage_keys(config, netlist_fp)["power"]


def ppa_fields(config: FlowConfig) -> dict:
    return {f.name: getattr(config, f.name)
            for f in dataclasses.fields(config)
            if f.name not in ANNOTATION_FIELDS}


def test_every_config_field_is_classified():
    names = {f.name for f in dataclasses.fields(FlowConfig)}
    assert names == set(FIELD_VALUES) | ANNOTATION_FIELDS, (
        "new FlowConfig field: decide whether it is PPA-relevant and add "
        "it to FIELD_VALUES (and to the slice of a stage that reads it)")
    # What makes the terminal stage key a sound result key: every field
    # but ``tag`` reaches it, so no two configs that differ in a field
    # the flow reads can share a stored result.
    assert FLOW_GRAPH.transitive_fields("power") == names - ANNOTATION_FIELDS


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_ppa_relevant_field_changes_the_key(data):
    field = data.draw(st.sampled_from(PPA_FIELDS))
    value = data.draw(FIELD_VALUES[field])
    if getattr(BASE, field) == value:
        return
    changed = BASE.with_(**{field: value})
    assert terminal_key(changed) != terminal_key(BASE), field


@given(tag=st.text(max_size=40))
@settings(max_examples=50, deadline=None)
def test_tag_only_difference_keeps_the_key(tag):
    assert terminal_key(BASE.with_(tag=tag)) == terminal_key(BASE)
    assert "tag" not in FLOW_GRAPH.transitive_fields("power")


@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_two_distinct_perturbations_differ(data):
    """Any two configs differing in some PPA field hash differently."""
    f1 = data.draw(st.sampled_from(PPA_FIELDS))
    f2 = data.draw(st.sampled_from(PPA_FIELDS))
    c1 = BASE.with_(**{f1: data.draw(FIELD_VALUES[f1])})
    c2 = BASE.with_(**{f2: data.draw(FIELD_VALUES[f2])})
    assert (terminal_key(c1) == terminal_key(c2)) \
        == (ppa_fields(c1) == ppa_fields(c2))


def test_arch_changes_the_key():
    cfet = FlowConfig(arch="cfet", back_layers=0, backside_pin_fraction=0.0)
    ffet = FlowConfig(arch="ffet", back_layers=0, backside_pin_fraction=0.0)
    assert terminal_key(cfet) != terminal_key(ffet)


def test_netlist_and_version_participate(monkeypatch):
    k = terminal_key(BASE)
    assert terminal_key(BASE, "0" * 64) != k
    monkeypatch.setattr(stages_mod, "code_fingerprint", lambda: "edited")
    assert terminal_key(BASE) != k


def small_netlist() -> Netlist:
    """Three instances, a clock, a primary input and output, one bound
    driver: every field the fingerprint covers has a value to change."""
    nl = Netlist("small")
    nl.add_net("clk", primary_input=True, clock=True)
    nl.add_net("a", primary_input=True)
    nl.add_net("out", primary_output=True)
    nl.add_instance("ff", "DFFD1", {"D": "n2", "CK": "clk", "Q": "q"})
    nl.add_instance("g1", "NAND2D1", {"A": "q", "B": "a", "ZN": "n2"})
    nl.add_instance("g2", "BUFD1", {"A": "q", "Z": "out"})
    nl.nets["q"].driver = ("ff", "Q")
    return nl


def renamed(mapping: dict, old: str, new: str) -> dict:
    """``mapping`` with key ``old`` renamed to ``new`` in place."""
    return {new if key == old else key: value
            for key, value in mapping.items()}


def swapped(mapping: dict, first: str, second: str) -> dict:
    """``mapping`` with two keys' insertion positions exchanged."""
    keys = list(mapping)
    i, j = keys.index(first), keys.index(second)
    keys[i], keys[j] = keys[j], keys[i]
    return {key: mapping[key] for key in keys}


def _rename_instance(nl):
    nl.instances["g1"].name = "g9"
    nl.instances = renamed(nl.instances, "g1", "g9")


def _rename_net(nl):
    nl.nets["n2"].name = "n9"
    nl.nets = renamed(nl.nets, "n2", "n9")


def _rename_pin(nl):
    inst = nl.instances["g1"]
    inst.connections = renamed(inst.connections, "B", "C")


def _set_flag(flag):
    def mutate(nl):
        net = nl.nets["n2"]
        setattr(net, flag, not getattr(net, flag))
    return mutate


def _swap_pins(nl):
    inst = nl.instances["g1"]
    inst.connections = swapped(inst.connections, "A", "B")


#: One edit per field the fingerprint covers; each must change it.
MUTATIONS = {
    "netlist name": lambda nl: setattr(nl, "name", "other"),
    "instance name": _rename_instance,
    "instance master": lambda nl: setattr(nl.instances["g1"], "master",
                                          "NAND2D2"),
    "instance pin": _rename_pin,
    "instance net": lambda nl: nl.instances["g1"].connections.update(
        B="clk"),
    "net name": _rename_net,
    "net primary input": _set_flag("is_primary_input"),
    "net primary output": _set_flag("is_primary_output"),
    "net clock": _set_flag("is_clock"),
    "net driver set": lambda nl: setattr(nl.nets["n2"], "driver",
                                         ("g1", "ZN")),
    "net driver changed": lambda nl: setattr(nl.nets["q"], "driver",
                                             ("g2", "Z")),
    "net driver cleared": lambda nl: setattr(nl.nets["q"], "driver", None),
    "two instances swapped": lambda nl: setattr(
        nl, "instances", swapped(nl.instances, "g1", "g2")),
    "two nets swapped": lambda nl: setattr(
        nl, "nets", swapped(nl.nets, "a", "out")),
    "two pins swapped": _swap_pins,
}


def rv8() -> Netlist:
    return generate_riscv_core(RiscvConfig(xlen=8, nregs=8, name="rv8"))


#: Prints one fingerprint per design; run under two hash seeds.
HASH_SEED_SCRIPT = """
from repro.core.cache import netlist_fingerprint
from repro.synth import (RiscvConfig, generate_counter, generate_fir_filter,
                         generate_multiplier, generate_riscv_core,
                         generate_rv16_cache, generate_rv16_sram,
                         generate_rv16_tile)
designs = [
    generate_counter(), generate_multiplier(), generate_fir_filter(),
    generate_riscv_core(RiscvConfig(xlen=8, nregs=8, name="rv8")),
    generate_rv16_sram(xlen=8, nregs=8, words=16, name="rv8_sram"),
    generate_rv16_cache(xlen=8, nregs=8, words=16, cache_words=8,
                        name="rv8_cache"),
    generate_rv16_tile(xlen=8, nregs=8, words=16, name="rv8_tile"),
]
for netlist in designs:
    print(netlist.name, netlist_fingerprint(netlist))
"""


class TestNetlistFingerprint:
    def test_stable_across_regeneration(self):
        assert netlist_fingerprint(generate_multiplier(4)) \
            == netlist_fingerprint(generate_multiplier(4))
        assert netlist_fingerprint(rv8()) == netlist_fingerprint(rv8())

    def test_different_designs_differ(self):
        assert netlist_fingerprint(generate_multiplier(4)) \
            != netlist_fingerprint(generate_multiplier(5))
        assert netlist_fingerprint(generate_multiplier(4)) \
            != netlist_fingerprint(generate_counter(8))

    @pytest.mark.parametrize("edit", sorted(MUTATIONS))
    def test_every_covered_field_changes_it(self, edit):
        before = netlist_fingerprint(small_netlist())
        netlist = small_netlist()
        MUTATIONS[edit](netlist)
        assert netlist_fingerprint(netlist) != before, edit

    def test_instance_boundaries_are_hashed(self):
        """Without a count before each list, these two would join into
        the same string: g's last pin and net read as instance h."""
        one = Netlist("t")
        one.add_instance("g", "M", {"A": "x", "h": "N"})
        two = Netlist("t")
        two.add_instance("g", "M", {"A": "x"})
        two.add_instance("h", "N", {})
        two.add_net("N")
        assert list(one.nets) == list(two.nets)
        assert netlist_fingerprint(one) != netlist_fingerprint(two)

    def test_sinks_and_attributes_are_not_covered(self):
        """What the fingerprint covers and nothing more: a net's sinks
        follow from the connections at bind time, and attributes are
        not hashed.  ``attributes["macros"]`` does reach the flow (its
        MacroSpecs compile library masters), but it is covered through
        the instances' master names: ``macro_name`` encodes every
        MacroSpec field (``SRAM{words}X{bits}``), and must keep doing so
        for new fields, or netlists that differ in one share keys."""
        before = netlist_fingerprint(small_netlist())
        netlist = small_netlist()
        netlist.nets["q"].sinks = [("g1", "A"), ("g2", "A")]
        netlist.attributes["note"] = "ignored"
        assert netlist_fingerprint(netlist) == before

    @pytest.mark.parametrize("where", ["netlist", "instance", "master",
                                       "pin", "net"])
    def test_a_name_with_the_separator_raises(self, where):
        netlist = small_netlist()
        bad = f"x{FINGERPRINT_SEP}y"
        if where == "netlist":
            netlist.name = bad
        elif where == "instance":
            netlist.instances = renamed(netlist.instances, "g1", bad)
        elif where == "master":
            netlist.instances["g1"].master = bad
        elif where == "pin":
            inst = netlist.instances["g1"]
            inst.connections = renamed(inst.connections, "B", bad)
        else:
            netlist.add_net(bad)
        with pytest.raises(ValueError, match="separator"):
            netlist_fingerprint(netlist)

    def test_shuffled_rv8_gets_a_new_fingerprint(self):
        """Regression: the fingerprint used to hash sorted instances and
        nets, so this netlist shared the plain rv8's key.  The flow adds
        power in netlist order, and a cold flow of it at the default
        config reads ``switching_mw`` 0.2073795991644438 and
        ``internal_mw`` 0.3563915870755401, where the plain rv8 reads
        0.20737959916444393 and 0.3563915870755396: a store hit would
        have handed it the plain netlist's bits."""
        netlist = rv8()
        rng = random.Random(1)
        instances = list(netlist.instances.items())
        nets = list(netlist.nets.items())
        rng.shuffle(instances)
        rng.shuffle(nets)
        netlist.instances, netlist.nets = dict(instances), dict(nets)
        assert netlist_fingerprint(netlist) != netlist_fingerprint(rv8())

    def test_independent_of_the_hash_seed(self):
        """Keys are read across processes: a generator that iterated a
        set of strings would key the same design differently under
        another ``PYTHONHASHSEED`` and miss the store."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        outputs = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            done = subprocess.run([sys.executable, "-c", HASH_SEED_SCRIPT],
                                  env=env, capture_output=True, text=True,
                                  timeout=120)
            assert done.returncode == 0, done.stderr
            outputs.append(done.stdout)
        assert len(outputs[0].split()) == 14, outputs[0]
        assert outputs[0] == outputs[1]


def asdict_payload(result) -> dict:
    """The payload :func:`result_to_payload` must build: the
    ``dataclasses.asdict`` form that journals and goldens hold."""
    if isinstance(result, dict):
        return {"kind": "report", "data": result}
    kind = "failed" if isinstance(result, FailedRun) else "ppa"
    return {"kind": kind, "data": dataclasses.asdict(result)}


def canonical(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True)


#: Three designs, one of them CFET and one single-sided FFET FM12.
FLOW_CASES = {
    "rv8_ffet_fm12bm12": (rv8, FlowConfig()),
    "mult4_cfet": (lambda: generate_multiplier(4),
                   FlowConfig(arch="cfet", back_layers=0,
                              backside_pin_fraction=0.0)),
    "counter8_ffet_fm12": (lambda: generate_counter(8),
                           FlowConfig(back_layers=0,
                                      backside_pin_fraction=0.0)),
}


@pytest.fixture(scope="module")
def flow_results() -> dict[str, PPAResult]:
    return {name: run_flow(factory, config)
            for name, (factory, config) in FLOW_CASES.items()}


def golden_results() -> dict[str, PPAResult]:
    golden = json.loads(GOLDEN_PATH.read_text())
    return {name: result_from_payload(payload)
            for name, payload in golden.items()}


class TestPayloadCodec:
    @pytest.mark.parametrize("case", sorted(FLOW_CASES))
    def test_ppa_payload_equals_the_asdict_oracle(self, flow_results, case):
        result = flow_results[case]
        payload, oracle = result_to_payload(result), asdict_payload(result)
        assert payload == oracle
        assert canonical(payload) == canonical(oracle)
        assert list(payload["data"]) == list(oracle["data"])

    def test_golden_payloads_equal_the_asdict_oracle(self):
        golden = json.loads(GOLDEN_PATH.read_text())
        for name, result in golden_results().items():
            payload = result_to_payload(result)
            assert payload == asdict_payload(result) == golden[name], name
            assert canonical(payload) == canonical(golden[name]), name

    def test_failed_and_report_payloads_equal_the_asdict_oracle(self):
        failed = FailedRun(label="x", target_utilization=0.9, reason="tap",
                           stage="routing", cause="RoutingError",
                           attempts=3, quarantined=True)
        report = {"samples": 4, "mean": {"wns_ps": -1.5}}
        for result in (failed, report):
            payload = result_to_payload(result)
            assert payload == asdict_payload(result)
            assert canonical(payload) == canonical(asdict_payload(result))
        assert result_to_payload(report)["data"] is report

    @pytest.mark.parametrize("case", sorted(FLOW_CASES))
    def test_ppa_payload_round_trips(self, flow_results, case):
        result = flow_results[case]
        assert result_from_payload(result_to_payload(result)) == result

    def test_payload_critical_path_is_a_copy(self, flow_results):
        result = flow_results["rv8_ffet_fm12bm12"]
        path = list(result.timing.critical_path)
        payload = result_to_payload(result)
        payload["data"]["timing"]["critical_path"].append("extra")
        assert result.timing.critical_path == path

    def test_failed_run_round_trips(self, tmp_path):
        failed = FailedRun(label="x", target_utilization=0.9, reason="tap")
        assert result_from_payload(result_to_payload(failed)) == failed
        store = StageStore(FlowCache(tmp_path))
        assert store.put_result(KEY, failed)
        assert store.result(KEY) == failed

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = FlowCache(tmp_path)
        path = cache._path(KEY, "result")
        path.parent.mkdir(parents=True)
        path.write_text("{not a pickle")
        assert StageStore(cache).result(KEY) is None
        assert cache.corrupt == 1

    def test_info_on_missing_directory_is_clean_and_empty(self, tmp_path):
        """`repro cache info` must report empty, not crash, pre-creation."""
        cache = FlowCache(tmp_path / "never" / "created")
        info = cache.info()
        assert info["exists"] is False
        assert info["entries"] == 0
        assert info["total_bytes"] == 0
        assert info["oldest_mtime"] is None
        assert cache.clear() == 0

    def test_info_counts_entries_and_bytes(self, tmp_path):
        cache = FlowCache(tmp_path)
        failed = FailedRun(label="x", target_utilization=0.9, reason="tap")
        StageStore(cache).put_result("ab" + "0" * 62, failed)
        cache.put("cd" + "1" * 62, "stage-sta", {"some": "payload"})
        info = cache.info()
        assert info["exists"] is True
        assert info["entries"] == 2
        assert info["total_bytes"] > 0
        assert info["newest_mtime"] >= info["oldest_mtime"]

    def test_cli_cache_info_on_missing_directory(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["cache", "info",
                     "--cache-dir", str(tmp_path / "nope")]) == 0
        out = capsys.readouterr().out
        assert "empty" in out

    def test_clear_drops_every_entry(self, tmp_path):
        cache = FlowCache(tmp_path)
        failed = FailedRun(label="x", target_utilization=0.9, reason="tap")
        StageStore(cache).put_result(KEY, failed)
        cache.put(KEY, "stage-sta", {"some": "payload"})
        assert cache.clear() == 2
        assert cache.info()["entries"] == 0
        assert StageStore(cache).result(KEY) is None

    def test_clear_removes_json_entries_of_earlier_versions(self, tmp_path):
        legacy = tmp_path / "ab" / ("ab" + "0" * 62 + ".json")
        legacy.parent.mkdir()
        legacy.write_text("{}")
        (tmp_path / "unrelated.txt").write_text("kept")
        assert FlowCache(tmp_path).clear() == 1
        assert not legacy.parent.exists()
        assert (tmp_path / "unrelated.txt").exists()
