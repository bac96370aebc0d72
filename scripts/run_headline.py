"""Compact full-scale headline runs for EXPERIMENTS.md.

All runs fan out over ``$REPRO_JOBS`` workers through the SweepRunner
and hit the content-addressed artifact store on re-runs; set
``REPRO_NO_CACHE=1`` to force recomputation.  The sweep checkpoints to
``headline.ckpt`` (``$REPRO_CHECKPOINT`` overrides), so a killed run
resumes where it stopped instead of starting over; failed points are
quarantined and reported rather than aborting the batch.
"""
import json

from repro.core import FlowConfig, script_runner
from repro.core.io import result_to_dict
from repro.synth import generate_riscv_core

ffet = dict(arch='ffet', backside_pin_fraction=0.5)
fm12 = dict(arch='ffet', back_layers=0, backside_pin_fraction=0.0)
cfet = dict(arch='cfet', back_layers=0, backside_pin_fraction=0.0)

jobs: list[tuple[str, FlowConfig]] = []

# Fig 9: frequency sweep at 0.70 util (valid for all)
for t_ghz in (0.5, 1.0, 1.5, 2.0, 3.0):
    jobs.append((f'fig9_cfet_{t_ghz}',
                 FlowConfig(**cfet, utilization=0.70, target_frequency_ghz=t_ghz)))
    jobs.append((f'fig9_fm12_{t_ghz}',
                 FlowConfig(**fm12, utilization=0.70, target_frequency_ghz=t_ghz)))

# Fig 12: max-util probes per layer count (probe the decision points only)
for n, utils in ((2, (0.56, 0.66)), (3, (0.76, 0.84)), (4, (0.84, 0.86)), (6, (0.86,)), (12, (0.86,))):
    for u in utils:
        jobs.append((f'fig12_{n}L_{u}',
                     FlowConfig(arch='ffet', front_layers=n, back_layers=n,
                                backside_pin_fraction=0.5, utilization=u)))

# Fig 13: efficiency vs layers at 0.76 util
for n in (3, 4, 5, 6, 8, 12):
    jobs.append((f'fig13_{n}L',
                 FlowConfig(arch='ffet', front_layers=n, back_layers=n,
                            backside_pin_fraction=0.5, utilization=0.76)))

# Table III: matched splits at 0.76
jobs.append(('t3_base_fm12', FlowConfig(**fm12, utilization=0.76)))
jobs.append(('t3_fm12bm12', FlowConfig(**ffet, utilization=0.76)))
for fp, (f, b) in ((0.5, (6, 6)), (0.5, (7, 5)), (0.3, (8, 4)), (0.3, (9, 3)), (0.16, (9, 3)), (0.04, (10, 2))):
    jobs.append((f't3_fp{fp}_FM{f}BM{b}',
                 FlowConfig(arch='ffet', front_layers=f, back_layers=b,
                            backside_pin_fraction=fp, utilization=0.76)))

runner = script_runner('headline.ckpt')
records = runner.run_records(generate_riscv_core, [cfg for _tag, cfg in jobs])

results = {}
for (tag, _cfg), rec in zip(jobs, records):
    d = result_to_dict(rec.result)
    d['tag'] = tag
    d['wall_time_s'] = rec.wall_time_s
    d['cache_hit'] = rec.cache_hit
    results[tag] = d
    suffix = f"({rec.wall_time_s:.0f}s{', cached' if rec.cache_hit else ''})"
    if d.get('valid') is not None and 'achieved_frequency_ghz' in d:
        print(f"{tag}: valid={d['valid']} drv={d.get('drv_count')} area={d.get('core_area_um2',0):.0f} "
              f"f={d.get('achieved_frequency_ghz',0):.3f} P={d.get('total_power_mw',0):.2f} {suffix}", flush=True)
    else:
        print(f"{tag}: FAILED {d.get('failure','')[:60]} {suffix}", flush=True)

print(runner.stats.summary(), flush=True)
with open('/root/repo/headline_results.json', 'w') as fh:
    json.dump(results, fh, indent=1)
print('DONE')
