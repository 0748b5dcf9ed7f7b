"""Piecewise-cubic scalar profiles with certified derivative extrema.

Angle profiles drive the twist disk maps and the cutoff rotation
profiles. They are C^1 by construction (cubic Hermite pieces) and both
sup|f'| and sup|t*f'(t)| come from closed-form per-piece extrema, not
from grid search, so the constants reported to callers are certified
up to float rounding.
"""

import numpy as np

from .errors import InvalidPointError


class CubicProfile:
    """C^1 piecewise-cubic function on [knots[0], knots[-1]].

    Outside the knot range the profile continues with the constant
    boundary value (derivative zero), and the boundary values are
    returned exactly, which lets compactly supported constructions be
    the identity outside their support with no rounding residue.
    """

    tag = "cubic"
    fields = (("knots", "knots"), ("coeffs", "coeffs"), ("values", "values"))

    def __init__(self, knots, coeffs, values):
        self.knots = np.asarray(knots, dtype=float)
        self.coeffs = np.asarray(coeffs, dtype=float)  # (m, 4): a + b s + c s^2 + d s^3
        self.values = np.asarray(values, dtype=float)  # values at the knots
        if self.knots.ndim != 1 or self.knots.size < 2:
            raise InvalidPointError("need at least two knots")
        if not np.all(np.diff(self.knots) > 0):
            raise InvalidPointError("knots must be strictly increasing")
        if not (np.all(np.isfinite(self.knots)) and np.all(np.isfinite(self.coeffs))):
            raise InvalidPointError("profile data must be finite")

    @classmethod
    def from_hermite(cls, knots, values, slopes):
        """Cubic Hermite interpolant through (knots, values, slopes)."""
        t = np.asarray(knots, dtype=float)
        p = np.asarray(values, dtype=float)
        m = np.asarray(slopes, dtype=float)
        if not (t.shape == p.shape == m.shape):
            raise InvalidPointError("knots, values, slopes must have equal length")
        if t.size < 2 or not np.all(np.diff(t) > 0):
            raise InvalidPointError("knots must be strictly increasing")
        h = np.diff(t)
        a = p[:-1]
        b = m[:-1]
        c = (3.0 * (p[1:] - p[:-1]) / h - 2.0 * m[:-1] - m[1:]) / h
        d = (2.0 * (p[:-1] - p[1:]) / h + m[:-1] + m[1:]) / (h * h)
        return cls(t, np.stack([a, b, c, d], axis=1), p)

    def __neg__(self):
        """The profile -f; negating every coefficient and value is exact."""
        return CubicProfile(self.knots, -self.coeffs, -self.values)

    @property
    def support_end(self):
        return float(self.knots[-1])

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        tt = np.atleast_1d(t)
        k = np.clip(np.searchsorted(self.knots, tt, side="right") - 1,
                    0, len(self.knots) - 2)
        s = tt - self.knots[k]
        a, b, c, d = (self.coeffs[k, i] for i in range(4))
        out = a + s * (b + s * (c + s * d))
        # exact constant continuation outside the knot range
        out = np.where(tt <= self.knots[0], self.values[0], out)
        out = np.where(tt >= self.knots[-1], self.values[-1], out)
        return float(out[0]) if scalar else out

    def derivative(self, t):
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        tt = np.atleast_1d(t)
        k = np.clip(np.searchsorted(self.knots, tt, side="right") - 1,
                    0, len(self.knots) - 2)
        s = tt - self.knots[k]
        b, c, d = (self.coeffs[k, i] for i in (1, 2, 3))
        out = b + s * (2.0 * c + s * 3.0 * d)
        out = np.where((tt <= self.knots[0]) | (tt >= self.knots[-1]), 0.0, out)
        return float(out[0]) if scalar else out

    def derivative_sup(self):
        """sup |f'(t)|, from per-piece quadratic extrema."""
        best = 0.0
        for k in range(len(self.knots) - 1):
            h = self.knots[k + 1] - self.knots[k]
            _, b, c, d = self.coeffs[k]
            cands = [0.0, h]
            if d != 0.0:
                s = -c / (3.0 * d)  # root of (b + 2cs + 3ds^2)' = 2c + 6ds
                if 0.0 < s < h:
                    cands.append(s)
            for s in cands:
                best = max(best, abs(b + s * (2.0 * c + s * 3.0 * d)))
        return float(best)

    def weighted_derivative_sup(self):
        """sup |t * f'(t)|, from per-piece cubic extrema.

        The continuation outside the knots has zero derivative, so only
        the knot range contributes.
        """
        best = 0.0
        for k in range(len(self.knots) - 1):
            t0 = self.knots[k]
            h = self.knots[k + 1] - t0
            _, b, c, d = self.coeffs[k]

            def weighted(s):
                return (t0 + s) * (b + s * (2.0 * c + s * 3.0 * d))

            # p(s) = (t0+s) q(s) is cubic; p'(s) = q + (t0+s) q' is the
            # quadratic (b + 2c t0) + (4c + 6d t0) s + 9d s^2
            p2 = 9.0 * d
            p1 = 4.0 * c + 6.0 * d * t0
            p0 = b + 2.0 * c * t0
            cands = [0.0, h]
            if p2 != 0.0:
                disc = p1 * p1 - 4.0 * p2 * p0
                if disc >= 0.0:
                    r = np.sqrt(disc)
                    for s in ((-p1 - r) / (2.0 * p2), (-p1 + r) / (2.0 * p2)):
                        if 0.0 < s < h:
                            cands.append(s)
            elif p1 != 0.0:
                s = -p0 / p1
                if 0.0 < s < h:
                    cands.append(s)
            for s in cands:
                best = max(best, abs(weighted(s)))
        return float(best)


def bump_profile(height, start, end):
    """Compactly supported C^1 bump: 0 at ``start`` and ``end``, flat top
    ``height`` at the midpoint, identically 0 outside;
    ``CubicProfile.from_hermite`` places the top anywhere else."""
    peak = 0.5 * (start + end)
    if not (start < peak < end):
        raise InvalidPointError("need start < end")
    return CubicProfile.from_hermite(
        [start, peak, end], [0.0, float(height), 0.0], [0.0, 0.0, 0.0]
    )


def twist_angle_profile(amplitude):
    """Default twist angle on [0, 1]: ``amplitude`` at the center, half
    of it at radius 0.55, 0 at radius 1 with zero slope, C^1 throughout."""
    return CubicProfile.from_hermite(
        [0.0, 0.55, 1.0],
        [float(amplitude), 0.5 * float(amplitude), 0.0],
        [0.0, -1.2 * float(amplitude), 0.0],
    )
