"""Compare two benchmark result sets against BENCHMARK.json's bounds.

    python bench/compare.py A B

A and B are result files written by ``bench/run.py --out`` (one
workload or a whole set) or directories of them, for instance repeated
sets of the parent commit (A) and of a change (B).  Per workload, each
end-to-end metric gets its median and quartiles on both sides and a
verdict:

* ``within``: B is not worse than A by more than the metric's bound;
* ``worse``: B is worse by more than the bound;
* ``unresolved``: the run-to-run spread (interquartile range over
  median) of either side exceeds the bound, so the data cannot tell;
  ``better`` instead when every run of B reads better than every run
  of A.

With at least ten A/B pairs (the files in sorted order, alternating
which side ran first), the pair rule for claiming a gain is applied
too: B wins at least nine tenths of the pairs, ties counting for
neither, and the medians differ by more than A's interquartile range.

Every exact per-layer counter (listed under ``exact`` in each traced
record) must be equal across all traced records of one workload, seed
and length.  Exits 1 when a metric is worse or an exact counter
differs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: Path) -> list[dict]:
    """Every workload record in a result file or a directory of them."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    records = []
    for file in files:
        data = json.loads(file.read_text())
        records.extend(data["records"] if "records" in data else [data])
    return records


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(a: list[float], b: list[float], bound: float,
            lower_is_better: bool) -> tuple[str, float]:
    """(verdict, relative change of B's median; positive is worse)."""
    med_a, med_b = statistics.median(a), statistics.median(b)
    change = (med_b - med_a) / abs(med_a) if med_a else 0.0
    if not lower_is_better:
        change = -change
    if max(spread(a), spread(b)) > bound:
        better_all = (max(b) < min(a)) if lower_is_better \
            else (min(b) > max(a))
        return ("better" if better_all else "unresolved"), change
    return ("worse" if change > bound else "within"), change


def pair_rule(a: list[float], b: list[float],
              lower_is_better: bool) -> str | None:
    """The gain claim over paired runs; None with fewer than ten pairs."""
    n = min(len(a), len(b))
    if n < 10:
        return None
    wins = sum(1 for x, y in zip(a, b) if (y < x if lower_is_better
                                           else y > x))
    q1, med_a, q3 = quartiles(a)
    gap = statistics.median(b) - med_a
    if not lower_is_better:
        gap = -gap
    gained = wins >= 0.9 * n and -gap > q3 - q1
    return f"{wins}/{n} wins, {'gain' if gained else 'no gain'}"


def by_workload(records: list[dict], trace: int) -> dict[str, list[dict]]:
    out: dict[str, list[dict]] = {}
    for rec in records:
        if rec.get("trace", 0) == trace and rec.get("metrics"):
            out.setdefault(rec["workload"], []).append(rec)
    return out


def compare(a_records: list[dict], b_records: list[dict],
            spec: dict) -> tuple[list[str], bool]:
    """Report lines and whether B regressed or broke an exact counter."""
    lines, bad = [], False
    a_runs, b_runs = by_workload(a_records, 0), by_workload(b_records, 0)
    for workload in sorted(set(a_runs) & set(b_runs)):
        lines.append(f"{workload}  (A: {len(a_runs[workload])} runs, "
                     f"B: {len(b_runs[workload])} runs)")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [r["metrics"][name]["value"] for r in a_runs[workload]]
            b = [r["metrics"][name]["value"] for r in b_runs[workload]]
            lower = metric["better"] == "lower"
            word, change = verdict(a, b, metric["bound"], lower)
            bad |= word == "worse"
            qa, qb = quartiles(a), quartiles(b)
            pairs = pair_rule(a, b, lower)
            lines.append(
                f"  {name:<13} A {qa[1]:.4g} [{qa[0]:.4g}, {qa[2]:.4g}]  "
                f"B {qb[1]:.4g} [{qb[0]:.4g}, {qb[2]:.4g}] {metric['unit']}"
                f"  worse by {change:+.1%} (bound {metric['bound']:.0%})  "
                f"{word}" + (f"  pairs: {pairs}" if pairs else ""))
    a_traced, b_traced = by_workload(a_records, 1), by_workload(b_records, 1)
    for workload in sorted(set(a_traced) & set(b_traced)):
        groups: dict[tuple, list[dict]] = {}
        for rec in a_traced[workload] + b_traced[workload]:
            key = (rec.get("seed"), rec.get("seconds"), rec.get("smoke"))
            groups.setdefault(key, []).append(rec)
        for key, recs in sorted(groups.items(), key=str):
            if len(recs) < 2:
                continue
            exact = set().union(*(r.get("exact", ()) for r in recs))
            differing = sorted(
                name for name in exact
                if len({r["metrics"][name]["value"] for r in recs}) > 1)
            bad |= bool(differing)
            lines.append(f"{workload} exact counters at seed {key[0]}: "
                         + (f"DIFFER: {', '.join(differing)}" if differing
                            else f"identical over {len(recs)} runs"))
    return lines, bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("a", type=Path, help="baseline file or directory")
    parser.add_argument("b", type=Path, help="candidate file or directory")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    lines, bad = compare(load(args.a), load(args.b), spec)
    print("\n".join(lines))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
