"""Artifact export: write a flow run's physical views to disk.

Mirrors the file set a commercial flow hands off: LEF + Liberty for the
library, one DEF per wafer side plus the merged DEF (Section III.C),
SPEF parasitics, gate-level Verilog, and human-readable reports (layout
summary, congestion heatmaps, critical path).
"""

from __future__ import annotations

import os

from ..analysis import congestion_map, layout_summary
from ..cells import write_liberty
from ..lefdef import write_def, write_lef
from ..extract import write_spef
from ..netlist import write_verilog
from ..sta import format_path, report_critical_path
from .flow import FlowArtifacts
from .io import results_to_json


def save_artifacts(artifacts: FlowArtifacts, directory: str) -> list[str]:
    """Write every view of a run into ``directory``; returns the paths."""
    os.makedirs(directory, exist_ok=True)
    written: list[str] = []

    def emit(filename: str, content: str) -> None:
        path = os.path.join(directory, filename)
        with open(path, "w") as handle:
            handle.write(content)
        written.append(path)

    design = artifacts.netlist.name
    emit(f"{design}.lib", write_liberty(artifacts.library))
    emit(f"{design}.lef", write_lef(artifacts.library))
    emit(f"{design}.v", write_verilog(artifacts.netlist))
    for side, def_design in artifacts.defs.items():
        emit(f"{design}_{side.value}.def", write_def(def_design))
    emit(f"{design}_merged.def", write_def(artifacts.merged_def))
    emit(f"{design}.spef", write_spef(artifacts.netlist, artifacts.extraction))
    emit(f"{design}_result.json", results_to_json([artifacts.result]))

    report_lines = [layout_summary(artifacts), ""]
    for side, routing in artifacts.routing_results.items():
        report_lines.append(f"congestion ({side.value}):")
        report_lines.append(congestion_map(routing))
        report_lines.append("")
    path = report_critical_path(
        artifacts.netlist, artifacts.library, artifacts.extraction,
        artifacts.result.timing.period_ps,
    )
    report_lines.append(format_path(path))
    emit(f"{design}_report.txt", "\n".join(report_lines))
    return written
