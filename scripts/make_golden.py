"""Capture the serial golden PPA numbers into tests/golden/.

Runs every case in tests/golden_cases.py through the plain serial path
(``run_once``, no pool, no cache) and stores the full round-trippable
result payloads.  tests/test_golden_regression.py then asserts that the
serial, parallel and cached paths all reproduce these numbers
bit-for-bit.  It also stores the samples of one Monte-Carlo study
(``MC_CASE``), which the engine must reproduce bit for bit.

Re-run (and commit the diff) only when an intentional flow change moves
the numbers::

    PYTHONPATH=src python scripts/make_golden.py
"""

import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO))
sys.path.insert(0, str(REPO / "src"))

from repro.core.cache import result_to_payload      # noqa: E402
from repro.core.runner import run_once              # noqa: E402
from tests.golden_cases import (CASES, GOLDEN_PATH,  # noqa: E402
                                MC_GOLDEN_PATH, mc_study_payload)


def main() -> None:
    golden = {}
    for name, (factory, config) in CASES.items():
        result = run_once(factory, config)
        golden[name] = result_to_payload(result)
        data = golden[name]["data"]
        print(f"{name}: f={data['achieved_frequency_ghz']:.4f} GHz "
              f"area={data['core_area_um2']:.2f} um2 "
              f"P={data['power']['switching_mw'] + data['power']['internal_mw'] + data['power']['leakage_mw']:.4f} mW")
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
    study = mc_study_payload()
    MC_GOLDEN_PATH.write_text(json.dumps(study, indent=1, sort_keys=True)
                              + "\n")
    print(f"wrote {MC_GOLDEN_PATH} ({len(study['samples'])} samples)")


if __name__ == "__main__":
    main()
