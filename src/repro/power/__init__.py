"""Power analysis: activity propagation, switching/internal/leakage."""

from .activity import (
    DEFAULT_INPUT_DENSITY,
    DEFAULT_INPUT_PROBABILITY,
    propagate_activities,
)
from .power import (
    CLOCK_ACTIVITY,
    DEFAULT_ACTIVITY,
    PowerReport,
    analyze_power,
    analyze_power_rows,
)

__all__ = [
    "CLOCK_ACTIVITY",
    "DEFAULT_ACTIVITY",
    "DEFAULT_INPUT_DENSITY",
    "DEFAULT_INPUT_PROBABILITY",
    "PowerReport",
    "analyze_power",
    "analyze_power_rows",
    "propagate_activities",
]
