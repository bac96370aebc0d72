"""Smoke tests of the benchmark itself (not part of the tier-1 suite).

    PYTHONPATH=src python -m pytest bench -q

The workload runs use ``--smoke`` (rv8-sized designs, two ops each).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import layers

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT, env=None) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(Path(cwd) / "bench/run.py"),
                           *args], cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=600)


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def checkout_copy(tmp_path: Path, with_src: bool = True) -> Path:
    """A directory holding BENCHMARK.json, bench/ and optionally src/."""
    skip = shutil.ignore_patterns("__pycache__", ".pytest_cache")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=skip)
    if with_src:
        shutil.copytree(ROOT / "src", tmp_path / "src", ignore=skip)
    return tmp_path


@pytest.fixture(scope="module")
def smoke_set(tmp_path_factory):
    out = tmp_path_factory.mktemp("set") / "set.json"
    proc = bench("--seed", "0", "--smoke", "--out", str(out))
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    return last_json(proc.stdout), json.loads(out.read_text())


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    per_layer = set(layers.per_layer({}, 1)) | {"trace.overhead"}
    assert per_layer == {m["name"] for m in SPEC["per_layer"]}
    assert layers.EXACT <= per_layer
    assert [w["name"] for w in SPEC["workloads"]] == \
        ["cold_flow", "layer_doe", "warm_rerun", "mc_study"]


def test_every_metric_appears_with_its_unit(smoke_set):
    summary, record = smoke_set
    assert summary["correct"] and summary["failed"] == 0
    for rec in record["records"]:
        spec = SPEC["per_layer" if rec["trace"] else "end_to_end"]
        assert {n: m["unit"] for n, m in rec["metrics"].items()} == \
            {m["name"]: m["unit"] for m in spec}
        assert rec["correct"] and rec["attempted"] >= 1
    assert {(r["workload"], r["trace"]) for r in record["records"]} == \
        {(w["name"], t) for w in SPEC["workloads"] for t in (0, 1)}


def test_records_round_trip_and_agree_with_themselves(smoke_set):
    summary, record = smoke_set
    assert json.loads(json.dumps(record)) == record
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    lines, bad = compare.compare(record["records"], record["records"], SPEC)
    assert not bad
    assert sum("identical" in line for line in lines) == 4


def test_gate_fails_on_a_tampered_golden_copy(tmp_path):
    root = checkout_copy(tmp_path)
    golden = json.loads((ROOT / "tests/golden/headline_ppa.json").read_text())
    golden["ffet_dual_rv16_sram"]["data"]["cell_count"] += 1
    (root / "tests/golden").mkdir(parents=True)
    (root / "tests/golden/headline_ppa.json").write_text(json.dumps(golden))
    proc = bench("--workload", "cold_flow", "--seed", "0", "--smoke",
                 "--trace", "1", cwd=root)
    assert proc.returncode != 0
    result = last_json(proc.stdout)
    assert not result["correct"] and result["failed"] >= 1
    assert "differs from golden" in proc.stdout


def test_injected_faults_fail_every_item():
    env = dict(os.environ, REPRO_FAULTS="routing:raise")
    proc = bench("--workload", "cold_flow", "--seed", "1", "--smoke",
                 "--trace", "1", env=env)
    assert proc.returncode != 0
    result = last_json(proc.stdout)
    assert result["failed"] == result["attempted"]


def test_without_sources_it_fails_without_a_result(tmp_path):
    root = checkout_copy(tmp_path, with_src=False)
    proc = bench("--workload", "cold_flow", "--seed", "0", "--trace", "0",
                 cwd=root)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_verdicts_and_the_pair_rule():
    base = [1.0 + 0.01 * i for i in range(10)]
    assert compare.verdict(base, base, 0.1, True)[0] == "within"
    assert compare.verdict(base, [x * 1.3 for x in base], 0.1, True)[0] \
        == "worse"
    noisy = [1.0, 2.0, 1.0, 2.0]
    assert compare.verdict(noisy, noisy, 0.1, True)[0] == "unresolved"
    assert compare.verdict(noisy, [0.5, 0.6, 0.5, 0.6], 0.1, True)[0] \
        == "better"
    assert compare.pair_rule(base, [x * 0.8 for x in base], True) == \
        "10/10 wins, gain"
    assert compare.pair_rule(base, base, True) == "0/10 wins, no gain"
    assert compare.pair_rule(base[:9], base[:9], True) is None
