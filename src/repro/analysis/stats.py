"""Statistics helpers: confidence ellipses and relative-diff tables.

Fig. 11 of the paper summarizes each DoE's power-frequency cloud with a
50 %-confidence ellipse; :func:`confidence_ellipse` computes the same
construct from sample points, scaling the sample covariance by the
chi-square quantile with two degrees of freedom.  That distribution is
the exponential with mean 2, so :func:`chi2_quantile_2dof` is the
closed form ``-2 ln(1 - p)`` and the module needs NumPy only.

Means and variances add left to right from 0.0, never with
``builtins.sum``, which Python 3.12 made a compensated sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Ellipse:
    """A confidence ellipse in the (x, y) plane."""

    center_x: float
    center_y: float
    semi_major: float
    semi_minor: float
    angle_rad: float
    confidence: float

    @property
    def area(self) -> float:
        return math.pi * self.semi_major * self.semi_minor

    def contains(self, x: float, y: float) -> bool:
        dx, dy = x - self.center_x, y - self.center_y
        cos_a, sin_a = math.cos(-self.angle_rad), math.sin(-self.angle_rad)
        u = dx * cos_a - dy * sin_a
        v = dx * sin_a + dy * cos_a
        if self.semi_major == 0 or self.semi_minor == 0:
            return u == 0 and v == 0
        return (u / self.semi_major) ** 2 + (v / self.semi_minor) ** 2 <= 1.0


def chi2_quantile_2dof(p: float) -> float:
    """Quantile of the chi-square distribution with two degrees of freedom.

    Its CDF is ``1 - exp(-k / 2)``, so the quantile is ``-2 ln(1 - p)``;
    ``log1p`` keeps it accurate for small ``p``.
    """
    return -2.0 * math.log1p(-p)


def confidence_ellipse(xs, ys, confidence: float = 0.50) -> Ellipse:
    """Fit a chi-square-scaled covariance ellipse to 2-D samples.

    The paper uses 50 % confidence for Fig. 11.  Needs at least three
    points; degenerate (collinear) clouds yield a zero-width ellipse.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape:
        raise ValueError(
            f"xs and ys must be paired: got shapes {xs.shape} and {ys.shape}")
    if xs.size < 3:
        raise ValueError(
            f"need at least 3 paired samples to fit an ellipse, got {xs.size}")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    if np.all(xs == xs[0]) and np.all(ys == ys[0]):
        # An identical cloud has no spread: an exact zero ellipse at the
        # point, not whatever rounding eigh makes of a zero covariance.
        return Ellipse(center_x=float(xs[0]), center_y=float(ys[0]),
                       semi_major=0.0, semi_minor=0.0, angle_rad=0.0,
                       confidence=confidence)
    cov = np.cov(np.vstack([xs, ys]))
    eigvals, eigvecs = np.linalg.eigh(cov)
    eigvals = np.maximum(eigvals, 0.0)
    # eigh returns ascending order; the major axis is the last column.
    k = chi2_quantile_2dof(confidence)
    major = math.sqrt(k * eigvals[1])
    minor = math.sqrt(k * eigvals[0])
    angle = math.atan2(eigvecs[1, 1], eigvecs[0, 1])
    return Ellipse(
        center_x=float(xs.mean()),
        center_y=float(ys.mean()),
        semi_major=major,
        semi_minor=minor,
        angle_rad=angle,
        confidence=confidence,
    )


#: Quantiles the variation signoff reports by default.
DEFAULT_QUANTILES = (0.01, 0.05, 0.50, 0.95, 0.99)


@dataclass(frozen=True)
class SampleStats:
    """Summary statistics of one scalar metric over Monte-Carlo samples.

    ``std`` is the sample (ddof=1) standard deviation, 0.0 for a single
    sample.  ``quantiles`` maps requested levels to linearly
    interpolated values.  Built by :func:`sample_stats` from plain
    Python floats so the result is platform-deterministic and
    JSON-friendly.
    """

    n: int
    mean: float
    std: float
    minimum: float
    maximum: float
    quantiles: dict[float, float]

    def quantile(self, q: float) -> float:
        return self.quantiles[q]

    @property
    def median(self) -> float:
        return self.quantiles.get(0.50, self.mean)

    def mean_minus_sigmas(self, sigmas: float) -> float:
        """``mean - sigmas * std`` — e.g. the 3-sigma-low metric value."""
        return self.mean - sigmas * self.std

    def to_dict(self) -> dict:
        """JSON-safe rendering (quantile keys become strings)."""
        return {
            "n": self.n, "mean": self.mean, "std": self.std,
            "min": self.minimum, "max": self.maximum,
            "quantiles": {f"{q:g}": v for q, v in self.quantiles.items()},
        }


def quantile(sorted_values: list[float], q: float) -> float:
    """Linear-interpolation quantile of an ascending-sorted list."""
    if not sorted_values:
        raise ValueError("cannot take a quantile of no samples")
    if not 0.0 <= q <= 1.0:
        raise ValueError("quantile level must be in [0, 1]")
    pos = q * (len(sorted_values) - 1)
    lo = math.floor(pos)
    hi = math.ceil(pos)
    if lo == hi:
        return sorted_values[lo]
    frac = pos - lo
    return sorted_values[lo] * (1.0 - frac) + sorted_values[hi] * frac


def sample_stats(values, quantiles=DEFAULT_QUANTILES) -> SampleStats:
    """Mean / sample sigma / extremes / quantiles of scalar samples."""
    values = [float(v) for v in values]
    if not values:
        raise ValueError("cannot summarize zero samples")
    n = len(values)
    ordered = sorted(values)
    if ordered[0] == ordered[-1]:
        # A constant sample has exactly zero spread; the generic path
        # below can round the mean by an ulp (sum of n identical floats
        # overflows the mantissa) and report a ~1e-15 sigma.
        mean, var = ordered[0], 0.0
    else:
        total = 0.0
        for v in values:
            total += v
        mean = total / n
        squares = 0.0
        for v in values:
            squares += (v - mean) ** 2
        var = squares / (n - 1)
    return SampleStats(
        n=n,
        mean=mean,
        std=math.sqrt(var),
        minimum=ordered[0],
        maximum=ordered[-1],
        quantiles={q: quantile(ordered, q) for q in quantiles},
    )


def relative_diff(value: float, baseline: float) -> float:
    """(value - baseline) / baseline, safe at zero."""
    if baseline == 0:
        return 0.0
    return (value - baseline) / baseline


def pareto_front(points: list[tuple[float, float]],
                 maximize_x: bool = True,
                 minimize_y: bool = True) -> list[tuple[float, float]]:
    """Non-dominated subset, default: maximize frequency, minimize power."""
    front = []
    for p in points:
        dominated = False
        for q in points:
            if q == p:
                continue
            better_x = q[0] >= p[0] if maximize_x else q[0] <= p[0]
            better_y = q[1] <= p[1] if minimize_y else q[1] >= p[1]
            strictly = (q[0] != p[0]) or (q[1] != p[1])
            if better_x and better_y and strictly:
                dominated = True
                break
        if not dominated:
            front.append(p)
    return sorted(front)
