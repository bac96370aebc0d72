"""Remaining full-scale runs (fig12 valid probes, fig13, Table III).

Fans out over ``$REPRO_JOBS`` workers; cached points are served from
the content-addressed artifact store (``REPRO_NO_CACHE=1`` bypasses it).
"""
import json

from repro.core import FlowConfig, script_runner
from repro.core.io import result_to_dict
from repro.synth import generate_riscv_core

ffet = dict(arch='ffet', backside_pin_fraction=0.5)
fm12 = dict(arch='ffet', back_layers=0, backside_pin_fraction=0.0)

jobs: list[tuple[str, FlowConfig]] = []
for n, u in ((12, 0.86), (6, 0.86), (4, 0.86), (4, 0.84), (3, 0.66), (3, 0.56), (2, 0.46)):
    jobs.append((f'fig12_{n}L_{u}',
                 FlowConfig(arch='ffet', front_layers=n, back_layers=n,
                            backside_pin_fraction=0.5, utilization=u)))
for n in (3, 4, 5, 6, 8, 12):
    jobs.append((f'fig13_{n}L',
                 FlowConfig(arch='ffet', front_layers=n, back_layers=n,
                            backside_pin_fraction=0.5, utilization=0.76)))
jobs.append(('t3_base_fm12', FlowConfig(**fm12, utilization=0.76)))
jobs.append(('t3_fm12bm12', FlowConfig(**ffet, utilization=0.76)))
for fp, (f, b) in ((0.5, (6, 6)), (0.5, (7, 5)), (0.3, (8, 4)), (0.3, (9, 3)), (0.16, (9, 3)), (0.04, (10, 2))):
    jobs.append((f't3_fp{fp}_FM{f}BM{b}',
                 FlowConfig(arch='ffet', front_layers=f, back_layers=b,
                            backside_pin_fraction=fp, utilization=0.76)))

runner = script_runner('headline2.ckpt')
records = runner.run_records(generate_riscv_core, [cfg for _tag, cfg in jobs])

results = {}
for (tag, _cfg), rec in zip(jobs, records):
    d = result_to_dict(rec.result)
    d['tag'] = tag
    d['wall_time_s'] = rec.wall_time_s
    d['cache_hit'] = rec.cache_hit
    results[tag] = d
    print(f"{tag}: valid={d.get('valid')} drv={d.get('drv_count')} "
          f"f={d.get('achieved_frequency_ghz',0):.3f} "
          f"P={d.get('total_power_mw',0):.2f} "
          f"({rec.wall_time_s:.0f}s{', cached' if rec.cache_hit else ''})",
          flush=True)

print(runner.stats.summary(), flush=True)
with open('/root/repo/headline2_results.json', 'w') as fh:
    json.dump(results, fh, indent=1)
print('DONE')
