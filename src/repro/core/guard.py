"""The flow guard: post-stage invariant checks on flow artifacts.

The flow's stages hand artifacts to each other (a placement to CTS, a
decomposition to the routers, a merged DEF to extraction).  A stage
that silently produces a damaged artifact — a lost cell location, a
sink dropped from every routing side, a duplicated DEF segment, an
absurd PPA number — poisons everything downstream, and a sweep would
happily cache and report the garbage.  The :class:`FlowGuard` runs
cheap invariant checks at the stage boundaries:

* **placement legality** — every instance has exactly one location and
  it lies inside the die;
* **net decomposition completeness** — Algorithm 1 assigned every sink
  of every net to exactly one wafer side (no lost or doubled sinks);
* **merged-DEF consistency** — the component list matches the netlist
  exactly and no net carries duplicated route segments;
* **PPA sanity** — frequency/power/area/wirelength are finite and in
  physically meaningful ranges.

Every violation counts ``guard.violations`` and raises
:class:`~repro.core.errors.GuardViolation`, a fatal error the sweep
runner quarantines as a structured failure, so a damaged run never
returns or stores a result.  Checks are read-only: guarding a healthy
run never changes its :class:`~repro.core.ppa.PPAResult`.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NoReturn

from . import telemetry
from .errors import GuardViolation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .ppa import PPAResult

#: Upper sanity bound on achieved frequency, GHz (nothing in this
#: technology clocks three orders of magnitude past the paper's 3 GHz).
MAX_SANE_FREQUENCY_GHZ = 1000.0

#: Upper sanity bound on block power, mW (paper-scale blocks draw mW).
MAX_SANE_POWER_MW = 1e6


class FlowGuard:
    """Runs post-stage invariant checks; any violation raises."""

    # -- violation plumbing --------------------------------------------------
    def _violate(self, stage: str, message: str) -> NoReturn:
        telemetry.current_tracer().count("guard.violations")
        raise GuardViolation(message, stage, cause="GuardViolation")

    def _checked(self) -> None:
        telemetry.current_tracer().count("guard.checks")

    # -- stage checks --------------------------------------------------------
    def check_placement(self, netlist, die, placement,
                        legal: bool = False) -> None:
        """Every instance placed exactly once, inside the die bounds.

        With ``legal=True`` (post-legalization), additionally checks
        that no standard cell sits on top of a hard-macro footprint —
        global placement may transiently park cells there, legalization
        must not.
        """
        self._checked()
        missing = [name for name in netlist.instances
                   if name not in placement.locations]
        if missing:
            self._violate(
                "placement",
                f"{len(missing)} instances have no location "
                f"(first: {sorted(missing)[:3]})")
        bounds = die.bounds()
        astray = [name for name, p in placement.locations.items()
                  if not bounds.contains(p)]
        if astray:
            self._violate(
                "placement",
                f"{len(astray)} locations outside the die "
                f"(first: {sorted(astray)[:3]})")
        macros = getattr(die, "macros", ())
        if legal and macros:
            macro_names = {m.name for m in macros}
            trapped = []
            for name, p in placement.locations.items():
                if name in macro_names:
                    continue
                for m in macros:
                    r = m.rect
                    if (r.x0_nm < p.x_nm < r.x1_nm
                            and r.y0_nm < p.y_nm < r.y1_nm):
                        trapped.append(name)
                        break
            if trapped:
                self._violate(
                    "legalization",
                    f"{len(trapped)} cells placed on a macro footprint "
                    f"(first: {sorted(trapped)[:3]})")

    def check_decomposition(self, netlist, decomposition) -> None:
        """Algorithm 1 kept every sink, on exactly one side."""
        self._checked()
        if decomposition.bridges:
            # Bridging rewrites connectivity (new buffer instances take
            # over sinks); the exact-coverage invariant no longer holds.
            return
        covered: dict[str, list] = {}
        for (name, _side), sinks in decomposition.side_sinks.items():
            covered.setdefault(name, []).extend(sinks)
        for net_name, net in netlist.nets.items():
            want = sorted(net.sinks)
            got = sorted(covered.get(net_name, ()))
            if want != got:
                self._violate(
                    "routing",
                    f"net {net_name}: decomposition covers {len(got)} sinks, "
                    f"netlist has {len(want)}")

    def check_merged_def(self, netlist, merged) -> None:
        """Every instance is a component; no net repeats a segment.

        The merged DEF may legitimately carry physical-only components
        (Power Tap Cells), so extras are fine — lost instances are not.
        """
        self._checked()
        missing = set(netlist.instances) - set(merged.components)
        if missing:
            self._violate(
                "def_merge",
                f"{len(missing)} netlist instances missing from the merged "
                f"DEF (first: {sorted(missing)[:3]})")
        for net_name, segments in merged.nets.items():
            if len(segments) != len(set(segments)):
                self._violate(
                    "def_merge",
                    f"net {net_name}: duplicated route segments in the "
                    "merged DEF")

    def check_result(self, result: "PPAResult") -> None:
        """Final PPA numbers are finite and physically plausible."""
        self._checked()
        checks = (
            # (name, value, lower bound, lower is exclusive, upper bound)
            ("achieved_frequency_ghz", result.achieved_frequency_ghz,
             0.0, True, MAX_SANE_FREQUENCY_GHZ),
            ("total_power_mw", result.power.total_mw,
             0.0, True, MAX_SANE_POWER_MW),
            ("core_area_um2", result.core_area_um2, 0.0, True, math.inf),
            ("total_wirelength_um", result.total_wirelength_um,
             0.0, False, math.inf),
            ("drv_count", float(result.drv_count), 0.0, False, math.inf),
        )
        for name, value, lo, lo_open, hi in checks:
            bad = (not math.isfinite(value) or value > hi
                   or value < lo or (lo_open and value == lo))
            if bad:
                self._violate(
                    "power",
                    f"{name} = {value!r} outside sane bounds "
                    f"({'(' if lo_open else '['}{lo:g}, {hi:g}])")
        if not math.isfinite(result.timing.wns_ps):
            self._violate("sta", f"wns_ps = {result.timing.wns_ps!r} "
                                 "is not finite")
