"""Scalar reference implementations of the flow's hot kernels.

Each module here is the plain-Python oracle for one vectorized kernel
in ``src/``, with the production function's exact signature so a test
can either compare the two or swap the oracle in:

* :func:`placement.relax_sweep` for ``repro.pnr.placement._relax_sweep``;
* :func:`routing.dist_field` (Dijkstra) for
  ``repro.pnr.routing.router._dist_field``;
* :func:`sta.build_levels` (one candidate lane at a time, two table
  registrations per lane) for ``TimingGraph._build_levels`` in
  ``repro.sta.sta``, which gathers each batch from the graph's lane
  table;
* :func:`sta.propagate_comb` for ``repro.sta.sta._propagate_comb``;
* :func:`sta.clock_arrivals` (a depth-first walk of the clock tree,
  scalar per row) for ``repro.sta.sta._clock_arrivals``, which times
  the graph's clock batches;
* :func:`power.power_sums` for ``repro.power.power._power_sums``;
* :func:`extract.extract_nets` (one :class:`extract.RCTree` per net)
  for ``repro.extract.extract._extract_nets``.

:func:`extract.estimate_parasitics` (one ``NetParasitics`` per net) is
the oracle of the fanout wireload model's arrays, and
:class:`sta.Parasitics` (a dict walk per net) of the index gathers in
``repro.sta.sta._Parasitics``.  :func:`synth.buffer_high_fanout`, with a
full bind after every split, is the oracle of the one-bind buffering
pass.  :func:`sta.analyze_hold` (a min-delay clock walk, then one dict
fold per instance in topological order) is the oracle of
``repro.sta.analyze_hold``'s min pass over the graph's batches; it
takes and refreshes the caller's graph as the kernel does.

The oracles perform every floating-point operation in the same order as
the kernels, so they agree bit-for-bit (tests/test_kernel_equivalence.py,
tests/test_clock_batches.py and the reference-patched golden case in
tests/test_golden_regression.py pin that).  The batch builder's oracle
fills the same arrays: tests/test_clock_batches.py compares every one,
table refs through the table they name.  ``LookupTable.__call__``
keeps its scalar form in ``src/``, because path reports
(``repro.sta.report_critical_path``) still call it.

:mod:`variation` is the Monte-Carlo oracle: one sample at a time on a
scaled copy of the extraction (:func:`sta.scale_extraction_sided`),
where the engine times a block of samples as rows of one propagation.
"""

from __future__ import annotations

from . import extract, placement, power, routing, sta, synth, variation


def install(monkeypatch) -> None:
    """Swap every oracle into its production seam for one test."""
    monkeypatch.setattr("repro.pnr.placement._relax_sweep",
                        placement.relax_sweep)
    monkeypatch.setattr("repro.pnr.routing.router._dist_field",
                        routing.dist_field)
    monkeypatch.setattr("repro.sta.sta.TimingGraph._build_levels",
                        sta.build_levels)
    monkeypatch.setattr("repro.sta.sta._propagate_comb", sta.propagate_comb)
    monkeypatch.setattr("repro.sta.sta._clock_arrivals", sta.clock_arrivals)
    monkeypatch.setattr("repro.power.power._power_sums", power.power_sums)
    monkeypatch.setattr("repro.extract.extract._extract_nets",
                        extract.extract_nets)
