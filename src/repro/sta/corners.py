"""Multi-corner timing: PVT derates over the nominal characterization.

The virtual PDK is characterized at the typical corner; slow and fast
corners are modeled as global derates on cell delays and wire RC — the
standard single-library multi-corner approximation (an OCV-style global
factor, not per-cell recharacterization).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cells import Library
from ..core.telemetry import current_tracer
from ..extract import Extraction
from ..netlist import Netlist
from .sta import TimingReport, analyze_timing_rows


@dataclass(frozen=True)
class Corner:
    """One process/voltage/temperature corner."""

    name: str
    cell_derate: float   # multiplier on cell delays
    wire_derate: float   # multiplier on wire RC


#: Standard corner set: slow (setup signoff), typical, fast (hold).
CORNERS = (
    Corner("ss_0p63v_125c", cell_derate=1.18, wire_derate=1.10),
    Corner("tt_0p70v_25c", cell_derate=1.00, wire_derate=1.00),
    Corner("ff_0p77v_m40c", cell_derate=0.85, wire_derate=0.93),
)


def analyze_corners(netlist: Netlist, library: Library,
                    extraction: Extraction, period_ps: float,
                    clock: str = "clk",
                    corners: tuple[Corner, ...] = CORNERS
                    ) -> dict[str, TimingReport]:
    """Setup analysis at each corner; returns reports keyed by name.

    Cell derates scale the whole arrival (cell delays dominate), wire
    derates scale the extracted parasitics; the netlist is the same at
    every corner, so all of them are one propagation with one uniform
    wire-RC row per corner (:func:`~repro.sta.sta.analyze_timing_rows`).
    """
    derates = np.array([c.wire_derate for c in corners], dtype=float)
    rows = np.repeat(derates[:, None], len(netlist.nets), axis=1)
    reports = analyze_timing_rows(netlist, library, extraction, rows,
                                  period_ps, clock, tracer=current_tracer())
    return {corner.name: derate_report(report, corner.cell_derate,
                                       period_ps)
            for corner, report in zip(corners, reports)}


def worst_corner(reports: dict[str, TimingReport]) -> tuple[str, TimingReport]:
    """The signoff corner: worst slack."""
    name = min(reports, key=lambda n: reports[n].wns_ps)
    return name, reports[name]


def derate_report(report: TimingReport, cell_derate: float,
                  period_ps: float) -> TimingReport:
    """Apply a global cell-delay derate to a finished timing report.

    The arrival-side quantities scale by ``cell_derate`` while the
    period stays fixed — the same OCV-style global factor
    :func:`analyze_corners` uses, exposed for the Monte-Carlo variation
    engine's per-sample CD/gate-length derates.
    """
    from dataclasses import replace

    arrival = report.worst_arrival_ps * cell_derate
    wns = period_ps - (period_ps - report.wns_ps) * cell_derate
    return replace(
        report,
        wns_ps=wns,
        tns_ps=report.tns_ps * cell_derate,
        worst_arrival_ps=arrival,
        insertion_delay_ps=report.insertion_delay_ps * cell_derate,
        clock_skew_ps=report.clock_skew_ps * cell_derate,
    )
