"""Statistics helpers: confidence ellipses, Pareto fronts."""

import math

import numpy as np
import pytest

from repro.analysis import (confidence_ellipse, pareto_front,
                            quantile, relative_diff, sample_stats)
from repro.analysis.stats import chi2_quantile_2dof


class TestConfidenceEllipse:
    def test_centered_on_mean(self):
        xs = [1.0, 2.0, 3.0, 4.0]
        ys = [10.0, 12.0, 9.0, 13.0]
        e = confidence_ellipse(xs, ys)
        assert e.center_x == pytest.approx(np.mean(xs))
        assert e.center_y == pytest.approx(np.mean(ys))

    def test_contains_center(self):
        e = confidence_ellipse([0, 1, 2, 3], [0, 1, 0, 1])
        assert e.contains(e.center_x, e.center_y)

    def test_higher_confidence_larger(self):
        xs = list(range(10))
        ys = [x * 0.5 + (x % 3) for x in xs]
        e50 = confidence_ellipse(xs, ys, 0.50)
        e95 = confidence_ellipse(xs, ys, 0.95)
        assert e95.area > e50.area

    def test_wider_spread_larger_ellipse(self):
        tight = confidence_ellipse([0, 0.1, 0.2, 0.3], [0, 0.1, 0, 0.1])
        wide = confidence_ellipse([0, 1, 2, 3], [0, 1, 0, 1])
        assert wide.area > tight.area

    def test_orientation_follows_correlation(self):
        xs = np.linspace(0, 10, 20)
        ys = 2 * xs + np.cos(xs)  # strongly positively correlated
        e = confidence_ellipse(xs, ys)
        assert 0 < e.angle_rad < math.pi / 2 or \
            -math.pi < e.angle_rad < -math.pi / 2

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            confidence_ellipse([1, 2], [1, 2])

    def test_bad_confidence_rejected(self):
        with pytest.raises(ValueError):
            confidence_ellipse([1, 2, 3], [1, 2, 3], confidence=1.5)

    def test_coverage_roughly_matches_level(self):
        rng = np.random.default_rng(0)
        xs = rng.normal(size=400)
        ys = rng.normal(size=400)
        e = confidence_ellipse(xs, ys, 0.50)
        covered = sum(e.contains(x, y) for x, y in zip(xs, ys)) / 400
        assert 0.40 < covered < 0.60


class TestChiSquareScale:
    """The ellipse's scale is the closed-form chi-square quantile (2 dof)."""

    def test_median_is_two_ln_two_exactly(self):
        assert chi2_quantile_2dof(0.5) == 2 * math.log(2)
        assert chi2_quantile_2dof(0.5).hex() == "0x1.62e42fefa39efp+0"

    def test_95_percent_within_one_ulp(self):
        reference = 5.991464547107979
        assert abs(chi2_quantile_2dof(0.95) - reference) <= \
            math.ulp(reference)

    def test_cdf_gives_back_the_level(self):
        grid = [i / 1000 for i in range(1, 1000)]
        grid += [1e-300, 1e-12, 1 - 1e-12, math.nextafter(1.0, 0.0)]
        for p in grid:
            k = chi2_quantile_2dof(p)
            assert abs(-math.expm1(-k / 2) - p) <= math.ulp(p), p

    def test_ellipse_axes_scale_with_the_quantile(self):
        xs = list(range(10))
        ys = [x * 0.5 + (x % 3) for x in xs]
        e50 = confidence_ellipse(xs, ys, 0.50)
        e95 = confidence_ellipse(xs, ys, 0.95)
        ratio = chi2_quantile_2dof(0.95) / chi2_quantile_2dof(0.50)
        assert e95.area / e50.area == pytest.approx(ratio, rel=1e-12)
        assert e50.semi_major ** 2 / e50.semi_minor ** 2 == pytest.approx(
            e95.semi_major ** 2 / e95.semi_minor ** 2, rel=1e-12)


class TestParetoAndDiff:
    def test_relative_diff(self):
        assert relative_diff(110, 100) == pytest.approx(0.10)
        assert relative_diff(5, 0) == 0.0

    def test_pareto_front(self):
        points = [(1.0, 1.0), (2.0, 2.0), (2.0, 0.5), (0.5, 0.4)]
        front = pareto_front(points)  # maximize x, minimize y
        assert (2.0, 0.5) in front
        assert (1.0, 1.0) not in front  # dominated by (2.0, 0.5)

    def test_pareto_single_point(self):
        assert pareto_front([(1.0, 1.0)]) == [(1.0, 1.0)]


class TestEllipseDegenerateInputs:
    def test_too_few_points_message_names_the_size(self):
        with pytest.raises(ValueError, match="3"):
            confidence_ellipse([1.0, 2.0], [1.0, 2.0])

    def test_mismatched_shapes_get_their_own_error(self):
        with pytest.raises(ValueError, match="paired"):
            confidence_ellipse([1.0, 2.0, 3.0], [1.0, 2.0])

    def test_identical_cloud_yields_exact_zero_ellipse(self):
        e = confidence_ellipse([2.0] * 5, [7.0] * 5)
        assert e.center_x == 2.0 and e.center_y == 7.0
        assert e.semi_major == 0.0 and e.semi_minor == 0.0
        assert e.angle_rad == 0.0
        assert e.area == 0.0

    def test_zero_ellipse_contains_only_its_center(self):
        e = confidence_ellipse([2.0] * 5, [7.0] * 5)
        assert e.contains(2.0, 7.0)
        assert not e.contains(2.0 + 1e-12, 7.0)
        assert not e.contains(2.0, 7.0 - 1e-12)

    def test_collinear_cloud_still_produces_an_ellipse(self):
        # Degenerate in one axis only: must not raise.
        e = confidence_ellipse([1.0, 2.0, 3.0, 4.0], [5.0] * 4)
        assert e.semi_major > 0.0
        assert e.semi_minor == pytest.approx(0.0, abs=1e-9)


class TestSampleStats:
    def test_basic_moments(self):
        s = sample_stats([1.0, 2.0, 3.0, 4.0])
        assert s.n == 4
        assert s.mean == pytest.approx(2.5)
        assert s.std == pytest.approx(np.std([1, 2, 3, 4], ddof=1))
        assert s.minimum == 1.0 and s.maximum == 4.0
        assert s.median == pytest.approx(2.5)

    def test_single_sample_has_zero_std(self):
        s = sample_stats([5.0])
        assert s.n == 1 and s.std == 0.0
        assert s.mean == s.minimum == s.maximum == 5.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            sample_stats([])

    def test_quantiles_interpolate_like_numpy(self):
        values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.3]
        for q in (0.01, 0.05, 0.50, 0.95, 0.99):
            assert quantile(sorted(values), q) == pytest.approx(
                np.quantile(values, q))

    def test_mean_minus_sigmas(self):
        s = sample_stats([1.0, 2.0, 3.0, 4.0])
        assert s.mean_minus_sigmas(3.0) == pytest.approx(s.mean - 3 * s.std)

    def test_to_dict_is_json_safe(self):
        import json

        payload = sample_stats([1.0, 2.0, 3.0]).to_dict()
        round_trip = json.loads(json.dumps(payload))
        assert round_trip["n"] == 3
        assert "0.5" in round_trip["quantiles"]
