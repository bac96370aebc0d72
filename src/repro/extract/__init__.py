"""Dual-sided RC extraction: the merged DEF to per-net parasitics."""

from .extract import (
    VIA_RES_KOHM,
    Extraction,
    congestion_derates,
    estimate_loads,
    estimate_parasitics,
    extract_design,
)
from .rc import NetParasitics
from .spef import SpefNet, parse_spef, write_spef

__all__ = [
    "Extraction",
    "NetParasitics",
    "VIA_RES_KOHM",
    "congestion_derates",
    "estimate_loads",
    "estimate_parasitics",
    "extract_design",
    "parse_spef",
    "write_spef",
    "SpefNet",
]
