"""Seeded process-variation models for the Monte-Carlo engine.

Three variation sources, following the overlay-aware FFET robustness
study (arXiv:2501.16063):

* **overlay** — frontside/backside lithography misalignment.  FFET
  patterns signals on *two* wafer sides, so each side gets an
  independent translation draw plus per-axis jitter and the overlay is
  their relative shift; CFET patterns signals on one side only, so the
  same draw exists (keeping the random stream identical across
  architectures) but perturbs nothing — backside wire RC is weighted
  by each net's backside wirelength fraction, which is zero for CFET;
* **CD/gate-length** — a per-sample global cell-delay sigma, applied
  through the :class:`~repro.sta.corners.Corner` derate machinery;
* **metal thickness/width** — per-side wire-RC sigma (thicker/narrower
  metal moves R and C), applied as per-net wire-RC factors
  (:func:`~repro.variation.perturb.wire_factors`).

Every model is a frozen dataclass with a deterministic
``sample(rng)``: the draw *order* is fixed and independent of the
sigma values, so two models differing only in sigma consume the same
underlying normal deviates — which is what makes sigma-sweep
benchmarks monotonic by construction instead of by luck.

Per-sample seeds derive from the root seed SplitMix-style
(:func:`sample_seed`), so sample ``i`` sees the same stream however
large the study and whichever block it is evaluated in.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

_MASK64 = (1 << 64) - 1
#: SplitMix64 increment (golden-ratio constant).
_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(x: int) -> int:
    """One SplitMix64 finalization step: a 64-bit avalanche mix."""
    x = (x + _GOLDEN) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def sample_seed(root_seed: int, index: int) -> int:
    """The RNG seed of sample ``index`` under ``root_seed``.

    A pure function of (root, index) — never of execution order — so
    any partition of samples into blocks draws identical variates for
    every sample.
    """
    return splitmix64(splitmix64(root_seed & _MASK64) ^ (index & _MASK64))


@dataclass(frozen=True)
class OverlayModel:
    """Frontside<->backside overlay: translation plus per-axis jitter.

    ``sigma_x_nm``/``sigma_y_nm`` spread the per-side translation draw;
    ``jitter_nm`` adds an isotropic per-axis component on top (local
    alignment-mark noise).  ``sides`` is how many independently
    patterned signal sides the technology has: 2 for FFET, 1 for CFET.
    With one side there is no second draw to misalign against, so the
    overlay shift is exactly zero.
    """

    sigma_x_nm: float = 2.0
    sigma_y_nm: float = 2.0
    jitter_nm: float = 0.5
    sides: int = 2

    def __post_init__(self) -> None:
        if self.sigma_x_nm < 0 or self.sigma_y_nm < 0 or self.jitter_nm < 0:
            raise ValueError("overlay sigmas must be non-negative")
        if self.sides not in (1, 2):
            raise ValueError("a wafer has one or two patterned signal sides")

    def sample(self, rng: random.Random) -> tuple[float, float]:
        """Overlay shift (dx_nm, dy_nm) between the two patterned sides.

        Always draws both sides' variates (same stream for FFET and
        CFET); single-sided technologies return an exact (0, 0).
        """
        shifts = []
        for _side in range(2):
            dx = rng.gauss(0.0, 1.0) * self.sigma_x_nm \
                + rng.gauss(0.0, 1.0) * self.jitter_nm
            dy = rng.gauss(0.0, 1.0) * self.sigma_y_nm \
                + rng.gauss(0.0, 1.0) * self.jitter_nm
            shifts.append((dx, dy))
        if self.sides < 2:
            return (0.0, 0.0)
        return (shifts[1][0] - shifts[0][0], shifts[1][1] - shifts[0][1])


@dataclass(frozen=True)
class CDVariationModel:
    """Critical-dimension / gate-length variation as cell-delay sigma.

    One global per-sample derate drawn from N(1, sigma_rel), floored
    well above zero so a tail draw can never produce a negative delay.
    """

    sigma_rel: float = 0.03
    floor: float = 0.5

    def __post_init__(self) -> None:
        if self.sigma_rel < 0:
            raise ValueError("CD sigma must be non-negative")
        if not 0.0 < self.floor <= 1.0:
            raise ValueError("derate floor must be in (0, 1]")

    def sample(self, rng: random.Random) -> float:
        return max(self.floor, 1.0 + rng.gauss(0.0, 1.0) * self.sigma_rel)


@dataclass(frozen=True)
class MetalRCVariationModel:
    """Metal thickness/width variation as per-side wire-RC sigma.

    Each wafer side's BEOL is processed separately, so the front and
    back stacks draw independent N(1, sigma) RC factors.
    """

    front_sigma_rel: float = 0.04
    back_sigma_rel: float = 0.04
    floor: float = 0.5

    def __post_init__(self) -> None:
        if self.front_sigma_rel < 0 or self.back_sigma_rel < 0:
            raise ValueError("metal RC sigmas must be non-negative")
        if not 0.0 < self.floor <= 1.0:
            raise ValueError("RC floor must be in (0, 1]")

    def sample(self, rng: random.Random) -> tuple[float, float]:
        front = max(self.floor,
                    1.0 + rng.gauss(0.0, 1.0) * self.front_sigma_rel)
        back = max(self.floor,
                   1.0 + rng.gauss(0.0, 1.0) * self.back_sigma_rel)
        return front, back


@dataclass(frozen=True)
class VariationSample:
    """One fully drawn perturbation — plain data, picklable."""

    index: int
    seed: int
    overlay_dx_nm: float
    overlay_dy_nm: float
    cell_derate: float
    front_rc_scale: float
    back_rc_scale: float

    @property
    def overlay_shift_nm(self) -> float:
        """Overlay shift magnitude, nm."""
        return math.hypot(self.overlay_dx_nm, self.overlay_dy_nm)


@dataclass(frozen=True)
class VariationModel:
    """The combined per-sample variation draw.

    Draw order is fixed (overlay, CD, metal) and every component always
    consumes its variates, so changing one sigma never shifts another
    component's stream.
    """

    overlay: OverlayModel = field(default_factory=OverlayModel)
    cd: CDVariationModel = field(default_factory=CDVariationModel)
    metal: MetalRCVariationModel = field(default_factory=MetalRCVariationModel)

    @classmethod
    def for_arch(cls, arch: str, overlay_sigma_nm: float = 2.0,
                 cd_sigma: float = 0.03,
                 rc_sigma: float = 0.04) -> "VariationModel":
        """The standard model for one architecture.

        FFET has two independently patterned signal sides; CFET one
        (its backside carries only power delivery, pre-aligned before
        signal patterning in this comparison).
        """
        sides = 2 if arch == "ffet" else 1
        return cls(
            overlay=OverlayModel(sigma_x_nm=overlay_sigma_nm,
                                 sigma_y_nm=overlay_sigma_nm,
                                 jitter_nm=overlay_sigma_nm * 0.25,
                                 sides=sides),
            cd=CDVariationModel(sigma_rel=cd_sigma),
            metal=MetalRCVariationModel(front_sigma_rel=rc_sigma,
                                        back_sigma_rel=rc_sigma),
        )

    def draw(self, root_seed: int, index: int) -> VariationSample:
        """Sample ``index``'s perturbation under ``root_seed``."""
        seed = sample_seed(root_seed, index)
        rng = random.Random(seed)
        dx, dy = self.overlay.sample(rng)
        cell = self.cd.sample(rng)
        front, back = self.metal.sample(rng)
        return VariationSample(
            index=index, seed=seed,
            overlay_dx_nm=dx, overlay_dy_nm=dy,
            cell_derate=cell,
            front_rc_scale=front, back_rc_scale=back,
        )
