"""The benchmark's traced pass wraps program functions by name.

``bench/layers.py`` replaces each ``(owner, attribute)`` its
``_targets()`` lists with a timing wrapper, found with ``getattr``.  A
rename in ``src/`` would break the traced pass, which the tier-1 suite
never runs, so this checks every name resolves.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves():
    targets = list(load_layers()._targets())
    assert targets
    for owner, attr, _make in targets:
        assert callable(getattr(owner, attr, None)), \
            f"{getattr(owner, '__name__', owner)}.{attr}"
