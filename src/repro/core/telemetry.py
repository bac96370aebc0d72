"""Stage-level flow telemetry: spans, counters and structured traces.

The flow (``core/flow.py``) is the paper's ten-stage pipeline, but a
run is otherwise an opaque wall time.  This module provides the
observability layer every stage and hot subsystem reports into:

* :class:`Tracer` — context-manager spans on the monotonic clock
  (``with tracer.span("placement"): ...``), arbitrarily nested, plus
  typed **counters** (monotonic accumulators: cache hits, bridges
  inserted) and **gauges** (last-value metrics: cells placed, routed
  wirelength per side, DRC violations);
* :class:`NullTracer` — the default.  Every instrumentation point goes
  through :func:`current_tracer`, which hands back a shared no-op
  singleton unless a real tracer was :func:`activate`\\ d, so the hot
  paths stay allocation-free when telemetry is off;
* :class:`Trace` — the finished, picklable record of one run.  Worker
  processes serialize traces back to the parent sweep runner, which
  merges them into a sweep-level stage breakdown;
* a JSONL codec (begin/end events, chrome-trace style) written per run
  under ``--trace <dir>`` and read back by ``repro trace report``;
* :func:`aggregate_stage_times` / :func:`format_stage_table` — the
  per-stage wall-time/percentage table for a run or a whole sweep.

Telemetry is strictly read-only with respect to the flow: tracing a
run must never change its :class:`~repro.core.ppa.PPAResult`
(property-tested in ``tests/test_telemetry.py``).
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "Trace",
    "Tracer",
    "activate",
    "aggregate_stage_times",
    "counter_total",
    "current_tracer",
    "format_stage_table",
    "load_trace",
    "load_traces",
    "merge_counters",
]


@dataclass
class Span:
    """One timed region: name, interval, and position in the nest."""

    name: str
    start_s: float
    end_s: float | None = None
    depth: int = 0
    parent: int | None = None  # index of the enclosing span, if any
    index: int = 0

    @property
    def closed(self) -> bool:
        return self.end_s is not None

    @property
    def duration_s(self) -> float:
        return 0.0 if self.end_s is None else self.end_s - self.start_s


@dataclass
class Trace:
    """The finished telemetry record of one run — plain, picklable data."""

    label: str = ""
    spans: list[Span] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)
    total_s: float = 0.0

    # -- queries -------------------------------------------------------------
    def stage_list(self) -> list[str]:
        """Names of the top-level (depth-0) spans, in execution order."""
        return [s.name for s in self.spans if s.depth == 0]

    def stage_times(self) -> dict[str, float]:
        """Top-level span durations, summed per name, in first-seen order."""
        times: dict[str, float] = {}
        for s in self.spans:
            if s.depth == 0:
                times[s.name] = times.get(s.name, 0.0) + s.duration_s
        return times

    # -- JSONL codec ---------------------------------------------------------
    def to_jsonl(self) -> str:
        """Serialize as begin/end events plus a trailer, one JSON per line."""
        lines = [json.dumps({"ev": "trace", "label": self.label})]
        events: list[tuple[float, int, dict]] = []
        for s in self.spans:
            events.append((s.start_s, 0, {
                "ev": "b", "id": s.index, "name": s.name, "t": s.start_s,
                "depth": s.depth, "parent": s.parent,
            }))
            if s.closed:
                events.append((s.end_s, 1, {
                    "ev": "e", "id": s.index, "t": s.end_s,
                }))
        # Stable interleaving: by time, begins before ends at equal stamps
        # of *different* spans, but a zero-duration span still closes
        # immediately after it opens thanks to the id tiebreak.
        events.sort(key=lambda e: (e[0], e[1], e[2]["id"]))
        lines.extend(json.dumps(payload) for _, _, payload in events)
        lines.append(json.dumps({
            "ev": "end", "total_s": self.total_s,
            "counters": self.counters, "gauges": self.gauges,
        }))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_jsonl(cls, text: str) -> "Trace":
        """Rebuild a trace from its JSONL form; inverse of :meth:`to_jsonl`."""
        trace = cls()
        open_spans: dict[int, Span] = {}
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            payload = json.loads(line)
            ev = payload.get("ev")
            if ev == "trace":
                trace.label = payload.get("label", "")
            elif ev == "b":
                span = Span(name=payload["name"], start_s=payload["t"],
                            depth=payload.get("depth", 0),
                            parent=payload.get("parent"),
                            index=payload["id"])
                open_spans[span.index] = span
                trace.spans.append(span)
            elif ev == "e":
                span = open_spans.pop(payload["id"], None)
                if span is None:
                    raise ValueError(
                        f"trace end event for unknown span id {payload['id']}")
                span.end_s = payload["t"]
            elif ev == "end":
                trace.total_s = payload.get("total_s", 0.0)
                trace.counters = dict(payload.get("counters", {}))
                trace.gauges = dict(payload.get("gauges", {}))
        trace.spans.sort(key=lambda s: s.index)
        return trace

    def write(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_jsonl())
        return path


class Tracer:
    """Collects spans, counters and gauges for one run.

    Spans nest through the context manager::

        tracer = Tracer(label="FFET FM12BM12")
        with tracer.span("routing"):
            with tracer.span("route.front"):
                ...
        tracer.count("cache.hits")
        tracer.gauge("placement.cells", 1200)
        trace = tracer.finish()

    Times come from :func:`time.perf_counter` relative to tracer
    creation, so durations are monotonic and unaffected by wall-clock
    adjustments.  A tracer is single-threaded by design — sweep
    parallelism is process-based, and each worker owns its tracer.
    """

    enabled = True

    def __init__(self, label: str = "") -> None:
        self.label = label
        self._origin = time.perf_counter()
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}

    def _now(self) -> float:
        return time.perf_counter() - self._origin

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        span = Span(name=name, start_s=self._now(),
                    depth=len(self._stack),
                    parent=self._stack[-1] if self._stack else None,
                    index=len(self.spans))
        self.spans.append(span)
        self._stack.append(span.index)
        try:
            yield span
        finally:
            # ``finish()`` may already have closed an abandoned span and
            # cleared the stack; only unwind what is still ours.
            if span.end_s is None:
                span.end_s = self._now()
            if self._stack and self._stack[-1] == span.index:
                self._stack.pop()

    def zero_span(self, name: str) -> Span:
        """Record an instantaneous span (e.g. a cache hit served a run)."""
        now = self._now()
        span = Span(name=name, start_s=now, end_s=now,
                    depth=len(self._stack),
                    parent=self._stack[-1] if self._stack else None,
                    index=len(self.spans))
        self.spans.append(span)
        return span

    def count(self, name: str, value: float = 1) -> None:
        """Add ``value`` to a monotonic counter."""
        self.counters[name] = self.counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        """Set a last-value metric."""
        self.gauges[name] = value

    def finish(self) -> Trace:
        """Close out and return the (picklable) trace.

        Open spans are closed at the current time, so a trace is always
        well-formed even after an exception unwound the flow.
        """
        now = self._now()
        for span in self.spans:
            if not span.closed:
                span.end_s = now
        self._stack.clear()
        return Trace(label=self.label, spans=self.spans,
                     counters=dict(self.counters),
                     gauges=dict(self.gauges), total_s=now)


class NullTracer:
    """No-op tracer with the full :class:`Tracer` API.

    ``span()`` hands back one shared context manager and the metric
    methods return immediately, so instrumented hot paths cost a method
    call and nothing else when telemetry is off.
    """

    enabled = False

    def span(self, name: str):
        return _NULL_SPAN_CM

    def zero_span(self, name: str) -> None:
        return None

    def count(self, name: str, value: float = 1) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass

    def finish(self) -> Trace:
        return Trace()


class _NullSpanContext:
    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN_CM = _NullSpanContext()

#: The shared default tracer: everything is a no-op.
NULL_TRACER = NullTracer()

_current: Tracer | NullTracer = NULL_TRACER


def current_tracer() -> Tracer | NullTracer:
    """The tracer instrumentation points report into (default: no-op)."""
    return _current


@contextmanager
def activate(tracer: Tracer | NullTracer | None) -> Iterator[Tracer | NullTracer]:
    """Install ``tracer`` as the current tracer for the ``with`` body."""
    global _current
    previous = _current
    _current = tracer if tracer is not None else NULL_TRACER
    try:
        yield _current
    finally:
        _current = previous


# -- aggregation and reporting ----------------------------------------------

def merge_counters(into: dict[str, float],
                   counters: dict[str, float]) -> dict[str, float]:
    """Accumulate one run's counters into a sweep-level total."""
    for name, value in counters.items():
        into[name] = into.get(name, 0) + value
    return into


def counter_total(counters: dict[str, float], prefix: str) -> float:
    """Sum every counter under a dotted prefix.

    ``counter_total(c, "stage_cache.singleflight")`` is the total
    cross-process coordination activity regardless of event kind; the
    job server's ``/stats`` and the CI smoke checks aggregate this way.
    """
    if not prefix.endswith("."):
        prefix += "."
    return sum(value for name, value in counters.items()
               if name.startswith(prefix))


def aggregate_stage_times(traces: Iterable[Trace]) -> dict[str, float]:
    """Sum top-level stage durations across runs, first-seen order."""
    totals: dict[str, float] = {}
    for trace in traces:
        for name, seconds in trace.stage_times().items():
            totals[name] = totals.get(name, 0.0) + seconds
    return totals


def format_stage_table(stage_times: dict[str, float],
                       title: str = "stage breakdown") -> str:
    """Render the per-stage time/percentage table ``trace report`` prints."""
    total = sum(stage_times.values())
    width = max([len(n) for n in stage_times] + [len("stage")])
    lines = [f"{title} ({total:.3f}s total)",
             f"{'stage':<{width}}  {'time_s':>9}  {'share':>6}"]
    for name, seconds in stage_times.items():
        share = seconds / total if total > 0 else 0.0
        lines.append(f"{name:<{width}}  {seconds:>9.3f}  {share:>6.1%}")
    return "\n".join(lines)


def load_trace(path: str | Path) -> Trace:
    """Read one ``*.jsonl`` trace file."""
    return Trace.from_jsonl(Path(path).read_text())


def load_traces(path: str | Path) -> list[Trace]:
    """Read a trace file or every ``*.jsonl`` trace in a directory."""
    path = Path(path)
    if path.is_dir():
        return [load_trace(p) for p in sorted(path.glob("*.jsonl"))]
    return [load_trace(path)]
