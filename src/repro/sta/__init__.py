"""Static timing analysis: setup (max) and hold (min) checks."""

from .corners import CORNERS, Corner, analyze_corners, derate_report, worst_corner
from .hold import FAST_CORNER_DERATE, HoldReport, analyze_hold, fix_hold
from .paths import PathStage, TimingPath, format_path, report_critical_path
from .sta import (
    PRIMARY_INPUT_SLEW_PS,
    TimingGraph,
    TimingReport,
    analyze_timing,
    analyze_timing_rows,
)

__all__ = [
    "CORNERS",
    "Corner",
    "FAST_CORNER_DERATE",
    "HoldReport",
    "PRIMARY_INPUT_SLEW_PS",
    "PathStage",
    "TimingGraph",
    "TimingReport",
    "analyze_corners",
    "analyze_hold",
    "TimingPath",
    "analyze_timing",
    "analyze_timing_rows",
    "derate_report",
    "format_path",
    "report_critical_path",
    "worst_corner",
    "fix_hold",
]
