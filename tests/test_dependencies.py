"""The package runs on the standard library and NumPy alone.

``pyproject.toml`` declares numpy as the only runtime dependency.  Two
checks keep that true: every import statement under ``src/repro``, at
any depth (function bodies included), names a standard-library module,
``numpy`` or ``repro``; and a fresh interpreter importing the package's
entry points loads nothing else.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

ALLOWED = frozenset(sys.stdlib_module_names) | {"numpy", "repro"}

#: The modules a process of the package starts from: the CLI, the
#: Monte-Carlo engine, the DoE runners, the artifact writers and the
#: job server.
ENTRY_POINTS = ("repro.cli", "repro.variation", "repro.core.doe",
                "repro.core.artifacts", "repro.service.server")


def imported_packages(tree: ast.AST) -> set[str]:
    """Top-level package of every absolute import anywhere in ``tree``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_source_imports_only_stdlib_and_numpy():
    modules = sorted((SRC / "repro").rglob("*.py"))
    assert len(modules) > 50
    offenders = {}
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        foreign = imported_packages(tree) - ALLOWED
        if foreign:
            offenders[str(path.relative_to(SRC))] = sorted(foreign)
    assert offenders == {}


_PROBE = """
import importlib, json, sys
bare = set(sys.modules)
for name in sys.argv[1:]:
    importlib.import_module(name)
print(json.dumps(sorted(set(sys.modules) - bare)))
"""


def test_entry_points_load_only_stdlib_and_numpy():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", _PROBE, *ENTRY_POINTS],
                         env=env, capture_output=True, text=True,
                         check=True).stdout
    loaded = json.loads(out)
    assert "repro.cli" in loaded and "numpy" in loaded
    foreign = sorted({name.split(".")[0] for name in loaded} - ALLOWED)
    assert foreign == []
