"""The flow benchmark: four workloads, end-to-end and per-layer metrics.

One workload, as a benchmark driver runs it (from the repository root)::

    python3 bench/run.py --workload cold_flow --seed 0 --seconds 12 --trace 0

Every workload, each in a fresh interpreter, untraced then traced::

    PYTHONPATH=src python bench/run.py --seed 0 [--trace 0|1] [--out FILE]

A workload run prints its metrics with their units and, as its last
line, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the ``end_to_end`` metrics of BENCHMARK.json untraced
(``--trace 0``), the ``per_layer`` ones traced (``--trace 1``).  It
exits nonzero when an output is wrong or an item failed.  See
bench/README.md for the workloads and the metric glossary.
"""

import time

_START = time.perf_counter()

import argparse       # noqa: E402
import json           # noqa: E402
import math           # noqa: E402
import os             # noqa: E402
import platform       # noqa: E402
import resource       # noqa: E402
import shutil         # noqa: E402
import statistics     # noqa: E402
import subprocess     # noqa: E402
import sys            # noqa: E402
import tempfile       # noqa: E402
from contextlib import contextmanager  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOAD_NAMES = ("cold_flow", "layer_doe", "warm_rerun", "mc_study")
#: Set-ups per untraced run (this process plus fresh interpreters);
#: ``setup_s`` is their median.
SETUP_REPS = 3
#: No new op starts this long after start, so a run on a far slower
#: host still exits within the 180 s a run may take.
DEADLINE_S = 120.0
#: Percentile ``op_s_tail`` needs this many ops beyond it.
TAIL_BEYOND = 10


@contextmanager
def scratch():
    """A private directory under :data:`WORK`, removed afterwards."""
    WORK.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=WORK))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still has its directory there


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def host() -> dict:
    import numpy
    uname = os.uname()
    return {"system": uname.sysname, "release": uname.release,
            "machine": uname.machine, "cpus": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__}


def tail(values: list[float]) -> dict | None:
    """The highest percentile with :data:`TAIL_BEYOND` ops beyond it.

    Only reported from 30 ops on, as the glossary defines it.
    """
    n = len(values)
    if n < 30:
        return None
    pct = 100.0 * (n - TAIL_BEYOND) / n
    return {"value": sorted(values)[n - TAIL_BEYOND - 1],
            "percentile": round(pct, 2), "n": n}


def cpu_s() -> float:
    """User+sys CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def op_count(workload, args) -> int:
    if args.smoke:
        return 2
    return max(3, round(args.seconds / workload.op_s))


def setup_child(args) -> dict:
    """One more set-up, from a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--setup-only"] + (["--smoke"] if args.smoke else [])
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=DEADLINE_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up rerun failed: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def per_kind(stat, kinds: list[str], values: list[float]) -> float:
    """``stat`` of each kind of op, averaged over the kinds."""
    groups: dict[str, list[float]] = {}
    for kind, value in zip(kinds, values):
        groups.setdefault(kind, []).append(value)
    return statistics.mean(stat(v) for v in groups.values())


def measure(workload, args, setup_s: float, setup_digest: str) -> dict:
    """The untraced pass: end-to-end metrics."""
    kinds, walls, cpus, digests = [], [], [], []
    items = failed = 0
    for inp in workload.inputs(op_count(workload, args)):
        if time.perf_counter() - _START > DEADLINE_S:
            break
        cpu0, start = cpu_s(), time.perf_counter()
        out = workload.run(inp)
        walls.append(time.perf_counter() - start)
        cpus.append(cpu_s() - cpu0)
        kinds.append(workload.part(inp))
        items += out.items
        failed += out.failed
        digests.append(out.digest)
    problems = []
    setups = [setup_s]
    for _ in range(SETUP_REPS - 1):
        rep = setup_child(args)
        setups.append(rep["setup_s"])
        if rep["digest"] != setup_digest:
            problems.append("set-up differs between fresh interpreters")
    # The fastest op of each kind, not the median: on a shared host,
    # neighbours slow whole stretches of a run by up to 2x, and the
    # median of a 12 s run moves with them while the minimum does not.
    metrics = {
        "setup_s": statistics.median(setups),
        "op_s_min": per_kind(min, kinds, walls),
        "cpu_s_min": per_kind(min, kinds, cpus),
        "peak_rss_mb": peak_rss_mb(),
    }
    detail = {"ops": len(walls), "op_kind": kinds, "op_s": walls,
              "op_cpu_s": cpus,
              "op_s_p50": per_kind(statistics.median, kinds, walls),
              "op_s_tail": tail(walls),
              "items_per_s": (items - failed) / sum(walls),
              "setup_s": setups, "setup_digest": setup_digest,
              "op_digests": digests}
    return {"metrics": metrics, "items": items, "failed": failed,
            "problems": problems, "detail": detail}


def measure_traced(workload, args) -> dict:
    """The traced pass: each input untraced, then traced; layer metrics."""
    import layers
    from repro.core import Tracer, telemetry

    count = max(1, math.ceil(op_count(workload, args) / 2))
    constants = workload.trace_constants()
    totals: dict[str, float] = {}
    kinds, plain, traced = [], [], []
    items = failed = mismatched = 0
    for inp in workload.inputs(count):
        if time.perf_counter() - _START > DEADLINE_S:
            break
        start = time.perf_counter()
        base = workload.run(inp)
        plain.append(time.perf_counter() - start)
        op_tracer = Tracer(label="op")
        with layers.installed(), telemetry.activate(op_tracer):
            start = time.perf_counter()
            out = workload.run(inp, traced=True)
            traced.append(time.perf_counter() - start)
        kinds.append(workload.part(inp))
        sums = layers.collect(out.traces + [op_tracer.finish()], traced[-1])
        for part in (sums, out.extra, constants):
            telemetry.merge_counters(totals, part)
        items += base.items + out.items
        failed += base.failed + out.failed
        if out.digest != base.digest:
            mismatched += 1
            failed += out.items
    metrics = layers.per_layer(totals, len(traced))
    metrics["trace.overhead"] = (per_kind(min, kinds, traced)
                                 / per_kind(min, kinds, plain) - 1.0)
    problems = [f"{mismatched} traced ops differ from their untraced run"
                ] if mismatched else []
    return {"metrics": metrics, "items": items, "failed": failed,
            "problems": problems, "exact": sorted(layers.EXACT),
            "detail": {"ops": len(traced), "op_kind": kinds,
                       "op_s_untraced": plain, "op_s_traced": traced}}


def run_workload(args) -> int:
    sys.path.insert(0, str(SRC))
    import workloads

    with scratch() as work_dir:
        workload = workloads.WORKLOADS[args.workload](
            args.seed, args.smoke, work_dir)
        setup_digest = workload.setup()
        setup_s = time.perf_counter() - _START
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "digest": setup_digest}))
            return 0
        trace = bool(args.trace)
        part = measure_traced(workload, args) if trace else \
            measure(workload, args, setup_s, setup_digest)
        part["problems"] += workload.check()

    spec = load_spec()
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if trace else "end_to_end"]}
    if set(units) != set(part["metrics"]):
        raise RuntimeError("computed metrics do not match BENCHMARK.json: "
                           f"{sorted(set(units) ^ set(part['metrics']))}")
    attempted = max(1, part["items"])
    failed = min(attempted, part["failed"] + len(part["problems"]))
    result = {
        "correct": not part["problems"] and part["failed"] == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": part["metrics"][name],
                           "unit": units[name]} for name in units},
    }
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": int(trace),
              "smoke": args.smoke, "host": host(),
              "fail_ratio": failed / attempted,
              "problems": part["problems"], "exact": part.get("exact", []),
              "detail": part["detail"], **result}
    for problem in part["problems"]:
        print(f"FAIL: {problem}")
    for name, metric in result["metrics"].items():
        print(f"{args.workload:<11} {name:<34} "
              f"{metric['value']:>14.6g} {metric['unit']}")
    if args.out:
        Path(args.out).write_text(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_set(args) -> int:
    """Every workload in its own interpreter; one record for the set."""
    passes = (0, 1) if args.trace is None else (args.trace,)
    records = []
    with scratch() as set_dir:
        for trace in passes:
            for name in WORKLOAD_NAMES:
                out = set_dir / f"{name}-{trace}.json"
                cmd = [sys.executable, str(Path(__file__).resolve()),
                       "--workload", name, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(trace),
                       "--out", str(out)] + (["--smoke"] if args.smoke else [])
                subprocess.run(cmd, cwd=ROOT, timeout=900)
                try:
                    records.append(json.loads(out.read_text()))
                    out.unlink()
                except (OSError, ValueError):
                    records.append({"workload": name, "trace": trace,
                                    "correct": False, "attempted": 1,
                                    "failed": 1, "metrics": {}})
    summary = {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {f"{r['workload']}.{name}": metric
                    for r in records for name, metric in r["metrics"].items()},
    }
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"seed": args.seed, "seconds": args.seconds, "host": host(),
             "records": records}) + "\n")
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="run one workload (default: all, each in "
                             "its own interpreter)")
    parser.add_argument("--seed", type=int, required=True,
                        help="workload seed: the same seed, the same inputs")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per workload on the reference "
                             "host; fixes the op count (default: "
                             "BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=None,
                        help="1: traced pass (per-layer metrics); "
                             "0: untraced (end-to-end); default with "
                             "--workload 0, without it both passes")
    parser.add_argument("--out", help="write the full JSON record here")
    parser.add_argument("--smoke", action="store_true",
                        help="rv8-sized designs, 2 ops per workload")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]
    if args.workload is None:
        return run_set(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
