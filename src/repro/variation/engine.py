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
   (root, index), never of scheduling;
3. the perturbed STA+power evaluations fan out over a process pool in
   contiguous chunks (``jobs`` from the same ``--jobs``/``$REPRO_JOBS``
   convention as the :class:`~repro.core.runner.SweepRunner`).  Because
   each sample is seeded by its index, ``jobs=1`` and ``jobs=4``
   produce bit-identical results;
4. a sample whose evaluation raises is quarantined as a
   :class:`~repro.variation.perturb.FailedSample` — one bad draw never
   aborts a study — and counted on the ``mc.failed`` trace counter.

Telemetry: ``mc.nominal`` / ``mc.samples`` spans, and
``mc.samples`` / ``mc.failed`` / ``mc.nominal_cache_hits`` counters.
"""

from __future__ import annotations

import pickle
import time
from concurrent import futures
from dataclasses import dataclass, field

from ..cells import Library
from ..core import faults as faults_mod
from ..core import telemetry
from ..core.cache import FlowCache, netlist_fingerprint
from ..core.config import FlowConfig
from ..core.flow import artifact_key, run_flow
from ..core.ppa import PPAResult
from ..core.runner import resolve_jobs
from ..core.stages import StageStore
from ..extract import Extraction
from ..netlist import Netlist
from .models import VariationModel
from .perturb import FailedSample, SampleResult, evaluate_sample


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
                           netlist_fingerprint(netlist_factory()),
                           version=store.version)
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


def _eval_chunk(netlist: Netlist, library: Library, extraction: Extraction,
                config: FlowConfig, samples: list
                ) -> list[SampleResult | FailedSample]:
    # Module-level so the process pool can pickle it as a task target.
    # Per-sample failures are quarantined here, inside the worker, so a
    # single pathological draw costs one record, not the chunk.
    out: list[SampleResult | FailedSample] = []
    for sample in samples:
        try:
            out.append(evaluate_sample(netlist, library, extraction,
                                       config, sample))
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception as exc:
            out.append(FailedSample(index=sample.index, seed=sample.seed,
                                    cause=type(exc).__name__,
                                    reason=str(exc)))
    return out


def _chunk_indices(n: int, chunks: int) -> list[range]:
    """Split ``range(n)`` into at most ``chunks`` contiguous ranges."""
    chunks = max(1, min(chunks, n))
    base, extra = divmod(n, chunks)
    out = []
    start = 0
    for i in range(chunks):
        size = base + (1 if i < extra else 0)
        out.append(range(start, start + size))
        start += size
    return out


def run_samples(bundle: NominalBundle, config: FlowConfig,
                model: VariationModel, samples: int, seed: int,
                jobs: int | None = None, tracer=None
                ) -> tuple[list[SampleResult], list[FailedSample]]:
    """Evaluate ``samples`` perturbed draws of one nominal design.

    Returns (successful, quarantined), both ordered by sample index and
    independent of ``jobs`` — the partition over workers affects only
    wall time, never a single bit of the results.
    """
    if samples < 0:
        raise ValueError("sample count must be non-negative")
    tr = tracer if tracer is not None else telemetry.NULL_TRACER
    drawn = [model.draw(seed, i) for i in range(samples)]
    jobs = resolve_jobs(jobs)

    outcomes: list[SampleResult | FailedSample] = []
    with tr.span("mc.samples"):
        if jobs > 1 and samples > 1:
            outcomes = _sample_pool(bundle, config, drawn, jobs)
        if not outcomes and samples:
            outcomes = _eval_chunk(bundle.netlist, bundle.library,
                                   bundle.extraction, config, drawn)
    outcomes.sort(key=lambda s: s.index)
    good = [s for s in outcomes if isinstance(s, SampleResult)]
    bad = [s for s in outcomes if isinstance(s, FailedSample)]
    tr.count("mc.samples", len(outcomes))
    if bad:
        tr.count("mc.failed", len(bad))
    return good, bad


def _sample_pool(bundle: NominalBundle, config: FlowConfig, drawn: list,
              jobs: int) -> list:
    """Chunked pool fan-out; [] when the pool cannot be used at all."""
    payload = (bundle.netlist, bundle.library, bundle.extraction, config)
    try:
        pickle.dumps(payload)
    except Exception:
        return []
    ranges = _chunk_indices(len(drawn), jobs * 4)
    outcomes: list = []
    try:
        with futures.ProcessPoolExecutor(
                max_workers=min(jobs, len(ranges))) as pool:
            tasks = [pool.submit(_eval_chunk, *payload,
                                 [drawn[i] for i in r])
                     for r in ranges if len(r)]
            for task in tasks:
                outcomes.extend(task.result())
    except (OSError, ImportError, futures.process.BrokenProcessPool):
        # The pool is unusable or died mid-study: the serial path
        # recomputes everything — identical results, just slower.
        return []
    return outcomes


def run_monte_carlo(netlist_factory, config: FlowConfig,
                    model: VariationModel | None = None,
                    samples: int = 256, seed: int | None = None,
                    jobs: int | None = None,
                    cache: FlowCache | None = None,
                    tracer=None) -> MonteCarloResult:
    """The full study: nominal flow once, then N perturbed evaluations.

    ``seed`` defaults to the flow config's seed, so a config fully
    determines its study.  See the module docstring for the execution
    model and determinism contract.
    """
    started = time.perf_counter()
    if seed is None:
        seed = config.seed
    if model is None:
        model = VariationModel.for_arch(config.arch)
    with telemetry.activate(tracer) as tr:
        bundle = nominal_bundle(netlist_factory, config, cache=cache,
                                tracer=tracer)
        good, bad = run_samples(bundle, config, model, samples, seed,
                                jobs=jobs, tracer=tr)
    return MonteCarloResult(
        config=config, model=model, seed=seed, nominal=bundle.result,
        samples=good, failed=bad, nominal_cached=bundle.cached,
        elapsed_s=time.perf_counter() - started,
    )
