"""Dependency-completeness of the stage graph's config slices.

Each stage declares the :class:`~repro.core.config.FlowConfig` fields
it reads (its slice); the store shares a stage's artifact across any
two configs that agree on the stage's *transitive* slice.  That is only
sound if the slices are complete — if a stage's artifact really is a
pure function of its declared fields (plus earlier stages' artifacts
and the netlist).  These tests enforce it empirically: perturb one
config field at a time, re-execute the flow (no store), and require
every stage whose transitive slice does *not* contain the field to
produce a byte-identical pickled artifact.

A failure here means a stage reads a config field it does not declare —
exactly the bug that would let the store replay a stale artifact.
"""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro.core import FlowCache, FlowConfig
from repro.core.cache import netlist_fingerprint
from repro.core.flow import FLOW_GRAPH, FLOW_STAGES, run_flow, stage_keys
from repro.core.stages import StageStore

from .golden_cases import MultiplierFactory

FACTORY = MultiplierFactory(5)
BASE = FlowConfig()

#: One valid alternate value per perturbable field.  ``arch`` and
#: ``seed`` sit in the root (``library``) slice so every stage key
#: already covers them; ``clock`` would rename a net the generated
#: design does not have.  ``backside_pin_fraction`` is likewise in the
#: root slice.  Everything else must leave out-of-slice stages
#: byte-identical.
PERTURBATIONS = {
    "front_layers": 9,
    "back_layers": 3,
    "utilization": 0.6,
    "aspect_ratio": 1.5,
    "target_frequency_ghz": 2.0,
    "gcell_tracks": 12,
    "max_fanout": 10,
    "cts_mode": "dual",
    "cts_back_fraction": 0.25,
    "activity": 0.5,
    "macro_halo_cpp": 4,
    "allow_bridging": True,
    "power_stripe_pitch_cpp": 24,
    "rrr_iterations": 4,
    "sizing_iterations": 6,
    "refine_placement": True,
    "refine_iterations": 100,
    "tag": "perturbed",
}

_SKIPPED = {"arch", "seed", "backside_pin_fraction", "clock"}


def test_every_config_field_is_covered():
    """The perturbation table tracks FlowConfig: no field slips by
    unexercised when one is added."""
    fields = {f.name for f in dataclasses.fields(FlowConfig)}
    assert fields == set(PERTURBATIONS) | _SKIPPED


def test_skipped_fields_really_are_in_the_root_slice():
    """Skipping a field is only sound if every stage key already
    depends on it (``clock`` aside, which cannot be renamed)."""
    root = FLOW_GRAPH.transitive_fields(FLOW_STAGES[0])
    assert _SKIPPED - {"clock"} <= root


@pytest.mark.parametrize("field", sorted(PERTURBATIONS))
def test_keys_change_from_the_first_reader_on(field):
    """The keys form a chain: perturbing a field changes exactly the
    keys of the first stage whose own slice names it and of every stage
    after it.  ``tag`` is in no slice, so it changes no key."""
    fp = netlist_fingerprint(FACTORY())
    base = stage_keys(BASE, fp)
    perturbed = stage_keys(BASE.with_(**{field: PERTURBATIONS[field]}), fp)
    changed = tuple(name for name in FLOW_STAGES
                    if perturbed[name] != base[name])
    readers = [stage.name for stage in FLOW_GRAPH
               if field in stage.config_fields]
    assert changed == (FLOW_STAGES[FLOW_STAGES.index(readers[0]):]
                       if readers else ())
    assert bool(readers) == (field != "tag")


def _stage_artifacts(config: FlowConfig, tmp_path, tag: str
                     ) -> dict[str, bytes]:
    """Run the flow once and return each stage's pickled artifact."""
    cache = FlowCache(tmp_path / tag)
    store = StageStore(cache)
    run_flow(FACTORY, config, store=store)
    keys = stage_keys(config, netlist_fingerprint(FACTORY()))
    return {name: pickle.dumps(store.get(name, keys[name]))
            for name in FLOW_STAGES}


@pytest.fixture(scope="module")
def baseline(tmp_path_factory) -> dict[str, bytes]:
    return _stage_artifacts(BASE, tmp_path_factory.mktemp("base"), "base")


@pytest.mark.parametrize("field", sorted(PERTURBATIONS))
def test_out_of_slice_stages_are_invariant(field, baseline,
                                           tmp_path_factory):
    perturbed = _stage_artifacts(
        BASE.with_(**{field: PERTURBATIONS[field]}),
        tmp_path_factory.mktemp(field), field)
    invariant = [name for name in FLOW_STAGES
                 if field not in FLOW_GRAPH.transitive_fields(name)]
    assert invariant, f"no stage is out-of-slice for {field}"
    for name in invariant:
        assert perturbed[name] == baseline[name], (
            f"stage {name!r} changed when {field!r} (not in its "
            "transitive config slice) was perturbed — the stage reads "
            "an undeclared field")
