"""The Monte-Carlo engine: one nominal flow, N perturbed evaluations.

Execution model:

1. the **nominal flow** runs once (placement, routing, extraction —
   the expensive part) and its :class:`NominalBundle` is stored as the
   ``nominal`` artifact of the :class:`~repro.core.stages.StageStore`,
   so repeated ``repro mc`` invocations on the same design never
   re-place-and-route — nor replay a stored walk, which would cost
   several times the read;
2. N :class:`~repro.variation.models.VariationSample` draws are taken
   with per-sample seeds derived SplitMix-style from the root seed
   (:func:`~repro.variation.models.sample_seed`) — a pure function of
   (root, index);
3. the perturbed STA+power evaluations run in this process, in
   contiguous blocks of :data:`SAMPLE_BLOCK` samples on one
   :class:`~repro.sta.TimingGraph` per study.  A block is one STA
   propagation and one power pass with a row per sample
   (:func:`~repro.variation.perturb.evaluate_block`), and a row's
   arithmetic never reads another row, so sample ``i`` depends only on
   (root seed, ``i``): not on the study size, its block, or its
   position there.  Blocks bound memory, whatever the sample count;
4. a block whose evaluation raises is quarantined as one
   :class:`~repro.variation.perturb.FailedSample` per sample, with the
   exception's type and message — one bad block never aborts a study —
   and counted on the ``mc.failed`` trace counter.

Telemetry: ``mc.nominal`` / ``mc.samples`` spans, and
``mc.samples`` / ``mc.failed`` / ``mc.nominal_cache_hits`` counters.
The nominal flow traces as any flow run does; sample evaluation emits
nothing else.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..cells import Library
from ..core import faults as faults_mod
from ..core import telemetry
from ..core.cache import FlowCache, netlist_fingerprint
from ..core.config import FlowConfig
from ..core.flow import artifact_key, run_flow
from ..core.ppa import PPAResult
from ..core.stages import StageStore
from ..extract import Extraction
from ..netlist import Netlist
from ..sta import TimingGraph
from .models import VariationModel
from .perturb import FailedSample, SampleResult, evaluate_block

#: Samples per STA/power pass.  Peak memory grows with the block, not
#: with the study; per-sample cost is near its floor from 64 rows on.
SAMPLE_BLOCK = 64


@dataclass
class NominalBundle:
    """The slice of a flow's artifacts the sampler needs — picklable."""

    result: PPAResult
    netlist: Netlist
    library: Library
    extraction: Extraction
    #: Served from the artifact store instead of a fresh run.
    cached: bool = False


@dataclass
class MonteCarloResult:
    """A finished variation study: the nominal point plus its cloud."""

    config: FlowConfig
    model: VariationModel
    seed: int
    nominal: PPAResult
    #: Successful samples, ordered by sample index.
    samples: list[SampleResult] = field(default_factory=list)
    #: Quarantined samples, ordered by sample index.
    failed: list[FailedSample] = field(default_factory=list)
    nominal_cached: bool = False
    elapsed_s: float = 0.0

    @property
    def requested(self) -> int:
        return len(self.samples) + len(self.failed)

    def metric(self, name: str) -> list[float]:
        """One metric's values across the successful samples."""
        return [getattr(s, name) for s in self.samples]


def nominal_bundle(netlist_factory, config: FlowConfig,
                   cache: FlowCache | None = None,
                   tracer=None) -> NominalBundle:
    """Run (or fetch) the nominal flow and keep what sampling needs.

    With a cache, the bundle is the ``nominal`` artifact of a
    :class:`~repro.core.stages.StageStore` on it, keyed from the walk's
    terminal stage key (:func:`~repro.core.flow.artifact_key`).  A miss
    takes a single-flight lease on that key: when several ``repro mc``
    processes share one cold cache, exactly one runs the flow while the
    rest wait (bounded by ``$REPRO_LOCK_TIMEOUT``) and load its
    published bundle.  The fresh run walks the same store, so it
    replays any flow prefix an earlier run or sweep already computed.
    Active fault injection bypasses the cache, mirroring the sweep
    runner's rule.
    """
    tr = tracer if tracer is not None else telemetry.NULL_TRACER
    if faults_mod.faults_active():
        cache = None
    store = StageStore(cache) if cache is not None else None
    lease = None
    if store is not None:
        key = artifact_key("nominal", config,
                           netlist_fingerprint(netlist_factory()))
        stored, lease = store.fetch_or_lease("nominal", key)
        if stored is not None:
            tr.count("mc.nominal_cache_hits")
            bundle = stored["bundle"]
            bundle.cached = True
            return bundle
    try:
        with tr.span("mc.nominal"):
            artifacts = run_flow(netlist_factory, config,
                                 return_artifacts=True,
                                 tracer=tracer, store=store)
        bundle = NominalBundle(result=artifacts.result,
                               netlist=artifacts.netlist,
                               library=artifacts.library,
                               extraction=artifacts.extraction)
        if store is not None:
            store.put("nominal", key, {"bundle": bundle})
    finally:
        # Publish-before-release, as for stage leases.
        if lease is not None:
            lease.release()
    return bundle


def run_samples(bundle: NominalBundle, config: FlowConfig,
                model: VariationModel, samples: int, seed: int,
                tracer=None) -> tuple[list[SampleResult], list[FailedSample]]:
    """Evaluate ``samples`` perturbed draws of one nominal design.

    Returns (successful, quarantined), both ordered by sample index.
    Each sample's result depends only on (``seed``, its index); see the
    module docstring.
    """
    if samples < 0:
        raise ValueError("sample count must be non-negative")
    tr = tracer if tracer is not None else telemetry.NULL_TRACER
    drawn = [model.draw(seed, i) for i in range(samples)]
    outcomes: list[SampleResult | FailedSample] = []
    with tr.span("mc.samples"):
        graph = TimingGraph(bundle.netlist, bundle.library,
                            config.clock) if drawn else None
        for start in range(0, samples, SAMPLE_BLOCK):
            block = drawn[start:start + SAMPLE_BLOCK]
            try:
                outcomes += evaluate_block(
                    bundle.netlist, bundle.library, bundle.extraction,
                    config, block, graph)
            except Exception as exc:
                outcomes += [FailedSample(index=s.index, seed=s.seed,
                                          cause=type(exc).__name__,
                                          reason=str(exc))
                             for s in block]
    good = [s for s in outcomes if isinstance(s, SampleResult)]
    bad = [s for s in outcomes if isinstance(s, FailedSample)]
    tr.count("mc.samples", len(outcomes))
    if bad:
        tr.count("mc.failed", len(bad))
    return good, bad


def run_monte_carlo(netlist_factory, config: FlowConfig,
                    model: VariationModel | None = None,
                    samples: int = 256, seed: int | None = None,
                    jobs: int | None = None,
                    cache: FlowCache | None = None,
                    tracer=None) -> MonteCarloResult:
    """The full study: nominal flow once, then N perturbed evaluations.

    ``seed`` defaults to the flow config's seed, so a config fully
    determines its study.  ``jobs`` is accepted and ignored: samples
    are evaluated in this process.  See the module docstring for the
    execution model and determinism contract.
    """
    if samples < 0:
        raise ValueError("sample count must be non-negative")
    started = time.perf_counter()
    if seed is None:
        seed = config.seed
    if model is None:
        model = VariationModel.for_arch(config.arch)
    with telemetry.activate(tracer) as tr:
        bundle = nominal_bundle(netlist_factory, config, cache=cache,
                                tracer=tracer)
        good, bad = run_samples(bundle, config, model, samples, seed,
                                tracer=tr)
    return MonteCarloResult(
        config=config, model=model, seed=seed, nominal=bundle.result,
        samples=good, failed=bad, nominal_cached=bundle.cached,
        elapsed_s=time.perf_counter() - started,
    )
