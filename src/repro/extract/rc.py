"""Per-net extraction results.

``repro.extract.extract`` builds every net's RC forest as flat arrays
and solves its Elmore delays in one pass; :class:`NetParasitics` is
what it keeps of each net.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class NetParasitics:
    """Extraction summary for one net."""

    net: str
    wire_cap_ff: float
    wire_res_kohm: float
    pin_cap_ff: float
    #: Wire-only Elmore delay to each sink, ps.
    sink_elmore_ps: dict[tuple[str, str], float]
    #: Total wirelength (all sides), nm.
    wirelength_nm: float
    via_count: int = 0
    #: Wirelength routed on backside (BM*) layers, nm.  Zero for
    #: single-sided nets and for every CFET net; the variation engine
    #: uses it to weight overlay-induced RC perturbations by how much
    #: of the net actually lives on the second patterned side.
    back_wirelength_nm: float = 0.0

    @property
    def total_cap_ff(self) -> float:
        """Load the driver sees: wire plus sink pin capacitance."""
        return self.wire_cap_ff + self.pin_cap_ff

    @property
    def back_fraction(self) -> float:
        """Share of this net's wirelength on backside layers, in [0, 1]."""
        if self.wirelength_nm <= 0:
            return 0.0
        return min(self.back_wirelength_nm / self.wirelength_nm, 1.0)

    def elmore_to(self, inst: str, pin: str) -> float:
        return self.sink_elmore_ps.get((inst, pin), 0.0)
