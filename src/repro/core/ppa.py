"""PPA result records for one implementation run."""

from __future__ import annotations

from dataclasses import dataclass

from ..power import PowerReport
from ..sta import TimingReport
from ..tech import MAX_DRV_COUNT


@dataclass(frozen=True)
class PPAResult:
    """Block-level power-performance-area outcome of one flow run."""

    label: str
    arch: str
    routing_label: str
    pin_density_label: str
    target_frequency_ghz: float
    target_utilization: float
    achieved_utilization: float
    core_area_um2: float
    cell_area_um2: float
    cell_count: int
    achieved_frequency_ghz: float
    timing: TimingReport
    power: PowerReport
    drv_count: int
    total_wirelength_um: float
    front_wirelength_um: float
    back_wirelength_um: float
    tap_cell_count: int = 0
    cts_buffers: int = 0
    placement_feasible: bool = True

    @property
    def valid(self) -> bool:
        """Paper validity rule: placeable and fewer than 10 DRVs."""
        return self.placement_feasible and self.drv_count < MAX_DRV_COUNT

    @property
    def total_power_mw(self) -> float:
        return self.power.total_mw

    @property
    def power_efficiency(self) -> float:
        return self.power.efficiency_ghz_per_mw

    def summary(self) -> str:
        """One-line human-readable result."""
        status = "ok" if self.valid else f"INVALID(drv={self.drv_count})"
        return (
            f"{self.label}: util={self.achieved_utilization:.0%} "
            f"area={self.core_area_um2:.1f}um2 "
            f"f={self.achieved_frequency_ghz:.2f}GHz "
            f"P={self.total_power_mw:.2f}mW "
            f"wl={self.total_wirelength_um:.0f}um [{status}]"
        )


@dataclass(frozen=True)
class FailedRun:
    """A run that produced no PPA result — infeasible or quarantined.

    The classic case is a utilization beyond the Power-Tap-Cell limit
    (an expected design-space boundary).  The fault-tolerance layer
    also quarantines runs here when a stage raised, timed out, tripped
    the flow guard, or kept killing its worker — with the failing
    stage, the cause (exception type name), and the attempt count
    attached so a sweep report can say exactly what happened.
    """

    label: str
    target_utilization: float
    reason: str
    #: Flow stage that failed (one of FLOW_STAGES; "" when unknown).
    stage: str = ""
    #: Exception type name ("PlacementError", "RunTimeout", ...).
    cause: str = ""
    #: Attempts consumed (> 1 when transient retries were exhausted).
    attempts: int = 1
    #: True for unexpected failures the runner quarantined; False for
    #: expected infeasibility (an unplaceable utilization point).
    quarantined: bool = False

    @property
    def valid(self) -> bool:
        return False

    def summary(self) -> str:
        """One-line structured rendering (stage, config, cause)."""
        kind = "QUARANTINED" if self.quarantined else "FAILED"
        parts = [f"{kind}: stage={self.stage or '?'}",
                 f"config={self.label!r}",
                 f"cause={self.cause or '?'}"]
        if self.attempts > 1:
            parts.append(f"attempts={self.attempts}")
        parts.append(f"error={self.reason}")
        return " ".join(parts)
