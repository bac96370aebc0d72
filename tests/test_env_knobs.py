"""docs/robustness.md's knob table lists exactly the ``REPRO_*`` variables.

The table's first column must equal the set of ``REPRO_[A-Z_]+`` names
spelled anywhere under ``src/repro``.  A name ending in ``_`` is a
prefix (``repro serve`` reads ``REPRO_SERVE_<FLAG>``), not a variable.
"""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ROBUSTNESS_DOC = ROOT / "docs" / "robustness.md"
NAME = re.compile(r"REPRO_[A-Z_]+")


def source_names() -> set[str]:
    names: set[str] = set()
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        names.update(NAME.findall(path.read_text()))
    return {name for name in names if not name.endswith("_")}


def table_names() -> list[str]:
    lines = ROBUSTNESS_DOC.read_text().splitlines()
    start = lines.index("| variable | default | CLI flag | meaning |") + 2
    names = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        names.append(line.split("|")[1].strip().strip("`"))
    return names


def test_knob_table_is_every_repro_variable():
    table = table_names()
    assert len(table) == len(set(table)), "a variable has two rows"
    assert set(table) == source_names()
