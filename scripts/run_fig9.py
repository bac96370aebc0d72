"""Full-scale Fig. 9 sweep (after the synthesis-guardband change).

Runs fan out over ``$REPRO_JOBS`` worker processes and completed
points are served from the content-addressed artifact store; set
``REPRO_NO_CACHE=1`` to force recomputation (see docs/performance.md).
"""

import json

from repro.core import FlowConfig, SweepRunner, script_runner
from repro.core.io import result_to_dict
from repro.synth import generate_riscv_core


def make_runner() -> SweepRunner:
    # Crash-safe: a killed batch resumes from the checkpoint file.
    return script_runner("fig9.ckpt")


def report(tag: str, record) -> dict:
    d = result_to_dict(record.result)
    d["tag"] = tag
    d["wall_time_s"] = record.wall_time_s
    d["cache_hit"] = record.cache_hit
    print(f"{tag}: f={d.get('achieved_frequency_ghz', 0):.3f} "
          f"P={d.get('total_power_mw', 0):.2f} "
          f"cells={d.get('cell_count')} "
          f"({record.wall_time_s:.0f}s{', cached' if record.cache_hit else ''})",
          flush=True)
    return d


def main() -> None:
    runner = make_runner()
    jobs = []
    for target in (0.5, 1.0, 1.5, 2.0, 2.5, 3.0):
        for name, kw in (
            ("cfet", dict(arch="cfet", back_layers=0,
                          backside_pin_fraction=0.0)),
            ("fm12", dict(arch="ffet", back_layers=0,
                          backside_pin_fraction=0.0)),
        ):
            jobs.append((f"fig9_{name}_{target}",
                         FlowConfig(**kw, utilization=0.70,
                                    target_frequency_ghz=target)))

    records = runner.run_records(generate_riscv_core,
                                 [cfg for _tag, cfg in jobs])
    results = {tag: report(tag, rec)
               for (tag, _cfg), rec in zip(jobs, records)}
    print(runner.stats.summary(), flush=True)
    with open("/root/repo/fig9_results.json", "w") as fh:
        json.dump(results, fh, indent=1)


def extra_probes() -> None:
    """A few extra Fig. 12 probes appended to fig9_results.json."""
    runner = make_runner()
    with open("/root/repo/fig9_results.json") as fh:
        results = json.load(fh)
    jobs = [
        (f"fig12_{n}L_{u}",
         FlowConfig(arch="ffet", front_layers=n, back_layers=n,
                    backside_pin_fraction=0.5, utilization=u))
        for n, u in ((4, 0.80),)
    ]
    records = runner.run_records(generate_riscv_core,
                                 [cfg for _tag, cfg in jobs])
    for (tag, _cfg), rec in zip(jobs, records):
        results[tag] = report(tag, rec)
    with open("/root/repo/fig9_results.json", "w") as fh:
        json.dump(results, fh, indent=1)


if __name__ == "__main__":
    main()
    extra_probes()
    print("DONE")
