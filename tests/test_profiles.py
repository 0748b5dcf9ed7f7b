"""Tests for piecewise-cubic profiles and their certified extrema."""

import numpy as np
import pytest

from bilip.errors import InvalidPointError
from bilip.profiles import CubicProfile, bump_profile, twist_angle_profile


def dense_grid(profile, per_interval=20_001):
    # sample each piece on its own grid, nudged off the knots so the
    # scan sees one-sided derivative limits instead of the constant
    # continuation at the boundary
    parts = [
        np.linspace(np.nextafter(a, b), np.nextafter(b, a), per_interval)
        for a, b in zip(profile.knots[:-1], profile.knots[1:])
    ]
    return np.concatenate(parts)


class TestHermiteConstruction:
    def test_interpolates_values_and_slopes(self):
        knots = [0.0, 0.4, 1.0]
        values = [0.3, -0.2, 0.0]
        slopes = [0.0, 1.5, -0.7]
        p = CubicProfile.from_hermite(knots, values, slopes)
        for t, v, s in zip(knots, values, slopes):
            assert p(t) == pytest.approx(v, abs=1e-12)
            if knots[0] < t < knots[-1]:
                fd = (p(t + 1e-7) - p(t - 1e-7)) / 2e-7
                assert fd == pytest.approx(s, abs=1e-5)

    def test_c1_across_knots(self):
        p = twist_angle_profile(0.8)
        for t in p.knots[1:-1]:
            left = p.derivative(t - 1e-9)
            right = p.derivative(t + 1e-9)
            assert left == pytest.approx(right, abs=1e-6)

    def test_bad_knots_rejected(self):
        with pytest.raises(InvalidPointError):
            CubicProfile.from_hermite([0.0, 0.0, 1.0], [0, 1, 0], [0, 0, 0])
        with pytest.raises(InvalidPointError):
            CubicProfile.from_hermite([0.0], [1.0], [0.0])


class TestConstantContinuation:
    def test_exact_zero_beyond_support(self):
        p = twist_angle_profile(0.8)
        assert p(1.0) == 0.0
        assert p(1.3) == 0.0
        assert p(100.0) == 0.0
        assert p.derivative(1.0) == 0.0

    def test_left_continuation_constant(self):
        p = bump_profile(1.0, 1.0, 3.0)
        assert p(0.5) == 0.0
        assert p(0.999999) == 0.0
        assert p(2.0) == pytest.approx(1.0)
        assert p(3.5) == 0.0


class TestDerivativeSup:
    def test_matches_dense_scan(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            knots = np.sort(rng.uniform(0, 2, size=4))
            knots[0] = 0.0
            if np.min(np.diff(knots)) < 1e-3:
                continue
            values = rng.normal(size=4)
            slopes = rng.normal(size=4)
            p = CubicProfile.from_hermite(knots, values, slopes)
            ts = dense_grid(p)
            dense = np.abs(p.derivative(ts)).max()
            exact = p.derivative_sup()
            assert dense <= exact * (1 + 1e-9) + 1e-12
            assert exact <= dense * (1 + 1e-4) + 1e-9

    def test_weighted_sup_matches_dense_scan(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            knots = np.sort(rng.uniform(0.1, 3, size=4))
            values = rng.normal(size=4)
            slopes = rng.normal(size=4)
            if np.min(np.diff(knots)) < 1e-3:
                continue
            p = CubicProfile.from_hermite(knots, values, slopes)
            ts = dense_grid(p)
            dense = np.abs(ts * p.derivative(ts)).max()
            exact = p.weighted_derivative_sup()
            assert dense <= exact * (1 + 1e-9) + 1e-12
            assert exact <= dense * (1 + 1e-4) + 1e-9


class TestBump:
    def test_shape(self):
        p = bump_profile(2.0, 1.0, 3.0)
        assert p(1.0) == 0.0
        assert p(3.0) == 0.0
        assert p(2.0) == pytest.approx(2.0)
        ts = np.linspace(1.0, 3.0, 1001)
        assert np.all(np.abs(p(ts)) <= 2.0 + 1e-12)

    def test_bad_support(self):
        with pytest.raises(InvalidPointError):
            bump_profile(1.0, 2.0, 1.0)
