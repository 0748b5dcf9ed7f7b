"""Tests for the map-expression algebra: sphere maps, disk maps,
spiral profiles and the exactly evaluable constructors."""

import warnings

import numpy as np
import pytest

import bilip.pl
from bilip import maps as M
from bilip.core import operator_norm, orthogonality_defect, rotation_matrix, row_dots
from bilip.errors import (
    DimensionMismatchError,
    InvalidPointError,
    MonotonicityError,
    NotInvertibleError,
    OffSphereError,
    SupportViolationError,
)
from bilip.pl import pl_twist_example
from bilip.profiles import CubicProfile, bump_profile


def unit_rows(v):
    return v / np.linalg.norm(v, axis=1)[:, None]


def random_points(rng, n, count, scale=10.0):
    return rng.normal(size=(count, n)) * scale


def roundtrip_residual(m, pts):
    back = M.evaluate_inverse_points(m, M.evaluate_points(m, pts))
    scale = np.maximum(1.0, np.linalg.norm(pts, axis=1))
    return float((np.linalg.norm(back - pts, axis=1) / scale).max())


# =====================================================================
# Sphere maps
# =====================================================================

def _latitude_inputs(axis, count=60):
    """Unit rows (to rounding, as a radial extension passes them) at
    polar angles log-spread from 1e-11 to 1 away from both poles, plus
    uniform ones, each turned toward its own direction perpendicular
    to ``axis``."""
    rng = np.random.default_rng(axis.size)
    near = np.logspace(-11.0, 0.0, count)
    alpha = np.concatenate([near, np.pi - near, rng.uniform(0.0, np.pi, count)])
    unit = axis / np.linalg.norm(axis)
    w = rng.normal(size=(alpha.size, axis.size))
    w = unit_rows(w - np.outer(w @ unit, unit))
    return unit_rows(np.cos(alpha)[:, None] * unit + np.sin(alpha)[:, None] * w)


def _latitude_reference(beta, axis, units, mp):
    """The forward latitude map of each row in 40-digit arithmetic."""
    mp.mp.dps = 40
    norm = mp.sqrt(mp.fsum(mp.mpf(a) ** 2 for a in axis))
    unit = [mp.mpf(a) / norm for a in axis]
    out = []
    for row in units:
        x = [mp.mpf(v) for v in row]
        c = mp.fsum(xi * ui for xi, ui in zip(x, unit))
        tang = [xi - c * ui for xi, ui in zip(x, unit)]
        s = mp.sqrt(mp.fsum(t * t for t in tang))
        h = mp.atan2(s, c)
        h += mp.mpf(beta) * mp.sin(h)
        out.append([float(mp.cos(h) * ui + mp.sin(h) * t / s)
                    for ui, t in zip(unit, tang)])
    return np.array(out)


class TestLatitudeAccuracy:
    """The forward map, by angle addition, against a 40-digit reference."""

    @pytest.mark.parametrize("beta", [0.3, -0.75, 0.9])
    @pytest.mark.parametrize("axis", [[0.6, -1.7], [0.3, -1.1, 2.4]])
    def test_forward_within_1e15_of_reference(self, beta, axis):
        mp = pytest.importorskip("mpmath")
        axis = np.array(axis)
        units = _latitude_inputs(axis)
        phi = M.LatitudeSphereMap(beta, axis)
        ref = _latitude_reference(beta, axis, units, mp)
        assert np.abs(phi.apply(units) - ref).max() <= 1e-15

    @pytest.mark.parametrize("beta", [0.3, -0.75, 0.9])
    @pytest.mark.parametrize("axis", [[0.6, -1.7], [0.3, -1.1, 2.4]])
    def test_inverse_undoes_forward(self, beta, axis):
        axis = np.array(axis)
        units = _latitude_inputs(axis)
        phi = M.LatitudeSphereMap(beta, axis)
        assert np.abs(phi.inverse().apply(phi.apply(units)) - units).max() <= 1e-14


class TestSphereMaps:
    def test_latitude_zero_beta_is_identity(self):
        phi = M.make_latitude_sphere_map(0.0, dim=3)
        rng = np.random.default_rng(0)
        u = unit_rows(rng.normal(size=(1000, 3)))
        np.testing.assert_allclose(phi.apply(u), u, atol=1e-12)

    def test_latitude_fixes_poles(self):
        phi = M.make_latitude_sphere_map(0.5, dim=3)
        poles = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
        np.testing.assert_allclose(phi.apply(poles), poles, atol=1e-12)

    def test_latitude_outputs_unit(self):
        phi = M.make_latitude_sphere_map(0.7, dim=4)
        rng = np.random.default_rng(1)
        u = unit_rows(rng.normal(size=(5000, 4)))
        norms = np.linalg.norm(phi.apply(u), axis=1)
        assert np.abs(norms - 1.0).max() <= 1e-12

    def test_latitude_monotonicity_guard(self):
        with pytest.raises(MonotonicityError):
            M.make_latitude_sphere_map(0.95, dim=2)

    @pytest.mark.parametrize("dim", [0, -1])
    def test_latitude_dimension_guard(self, dim):
        with pytest.raises(InvalidPointError):
            M.make_latitude_sphere_map(0.5, dim)

    @pytest.mark.parametrize("beta", [0.0, 1e-8, -1e-8, 0.3, -0.3, 0.6, -0.6, 0.9, -0.9])
    def test_latitude_inverse_angle_solves_kepler(self, beta):
        # a + beta sin(a) = t to 1e-15 across [0, pi], at its ends too
        t = np.concatenate([np.linspace(0.0, np.pi, 200_001),
                            [5e-324, 1e-300, np.nextafter(np.pi, 0.0)]])
        a = M.LatitudeSphereMap(beta, [0.0, 0.0, 1.0])._angle_map_inverse(t)
        assert np.all((a >= 0.0) & (a <= np.pi))
        assert np.abs(a + beta * np.sin(a) - t).max() <= 1e-15

    def test_latitude_inverse_roundtrip(self):
        phi = M.make_latitude_sphere_map(0.8, dim=3)
        inv = phi.inverse()
        rng = np.random.default_rng(2)
        u = unit_rows(rng.normal(size=(2000, 3)))
        np.testing.assert_allclose(inv.apply(phi.apply(u)), u, atol=1e-12)

    def test_latitude_claimed_bound_not_falsified(self):
        # sampled chordal ratios on a dense circle never beat the
        # claimed constant (the angle reparametrization derivative
        # range is exactly [1-b, 1+b])
        phi = M.make_latitude_sphere_map(0.5, dim=2)
        t = np.linspace(0.0, 2 * np.pi, 20_000, endpoint=False)
        u = np.stack([np.cos(t), np.sin(t)], axis=1)
        v = np.roll(u, -1, axis=0)
        ratios = np.linalg.norm(phi.apply(u) - phi.apply(v), axis=1) / np.linalg.norm(
            u - v, axis=1
        )
        lam = np.maximum(ratios, 1.0 / ratios).max()
        assert lam <= phi.lambda_claimed * (1 + 1e-6)
        assert lam >= 1.0 + 0.25  # the map is genuinely non-isometric

    def test_orthogonal_requires_orthogonal(self):
        with pytest.raises(OffSphereError):
            M.OrthogonalSphereMap([[1.0, 0.5], [0.0, 1.0]])

    def test_conjugated_matches_direct(self):
        rng = np.random.default_rng(3)
        r = rotation_matrix((0, 2), 0.7, 3)
        inner = M.make_latitude_sphere_map(0.4, dim=3)
        conj = M.ConjugatedSphereMap(r, inner)
        u = unit_rows(rng.normal(size=(500, 3)))
        expect = (inner.apply(u @ r) @ r.T)
        np.testing.assert_allclose(conj.apply(u), expect, atol=1e-9)

    def test_sphere_apply_validates(self):
        phi = M.make_latitude_sphere_map(0.5, dim=2)
        with pytest.raises(OffSphereError):
            M.sphere_apply(phi, [2.0, 0.0])


# =====================================================================
# Radial extension
# =====================================================================

class TestRadialExtension:
    def test_orthogonal_extension_is_linear(self):
        # the radial extension of a rotation is that rotation
        r90 = rotation_matrix((0, 1), np.pi / 2, 2)
        f = M.radial_extension(M.OrthogonalSphereMap(r90))
        np.testing.assert_allclose(M.evaluate(f, [2.0, 0.0]), [0.0, 2.0], atol=1e-12)

    def test_identity_sphere_map_extends_to_identity(self):
        f = M.radial_extension(M.OrthogonalSphereMap(np.eye(3)))
        rng = np.random.default_rng(4)
        pts = random_points(rng, 3, 1000)
        np.testing.assert_allclose(M.evaluate_points(f, pts), pts, atol=1e-9)

    def test_origin_fixed(self):
        f = M.radial_extension(M.make_latitude_sphere_map(0.5, dim=2))
        assert np.array_equal(M.evaluate(f, [0.0, 0.0]), [0.0, 0.0])

    def test_norm_preservation(self):
        f = M.radial_extension(M.make_latitude_sphere_map(0.5, dim=3))
        rng = np.random.default_rng(5)
        pts = random_points(rng, 3, 10_000, scale=50.0)
        out = M.evaluate_points(f, pts)
        r_in = np.linalg.norm(pts, axis=1)
        r_out = np.linalg.norm(out, axis=1)
        assert (np.abs(r_out - r_in) / np.maximum(1.0, r_in)).max() <= 1e-9

    def test_drift_scales_linearly(self):
        # ||f(r x) - r x|| = r ||phi(x) - x||, so doubling the radius
        # doubles the drift exactly
        f = M.radial_extension(M.make_latitude_sphere_map(0.5, dim=2))
        x = np.array([0.6, 0.8])
        drifts = [
            np.linalg.norm(M.displacement(f, (2.0 ** k) * x)) for k in range(1, 41)
        ]
        ratios = np.array(drifts[1:]) / np.array(drifts[:-1])
        assert np.abs(ratios - 2.0).max() <= 1e-9
        assert drifts[-1] > 1e6  # unbounded in practice by k = 40
        assert all(b > a for a, b in zip(drifts, drifts[1:]))

    def test_roundtrip(self):
        f = M.radial_extension(M.make_latitude_sphere_map(0.6, dim=3))
        rng = np.random.default_rng(6)
        pts = random_points(rng, 3, 10_000)
        assert roundtrip_residual(f, pts) <= 1e-9


def _latitude_broadcast(phi, units):
    """A latitude map (or its inverse) written with numpy broadcasts
    over whole rows."""
    unit = phi._unit
    c = np.clip(np.sum(units * unit, axis=1), -1.0, 1.0)
    tang = units - c[:, None] * unit[None, :]
    s = np.linalg.norm(tang, axis=1)
    polar = s < 1e-12
    s = np.where(polar, 1.0, s)
    if isinstance(phi, M._InverseLatitudeSphereMap):
        h = phi._angle_map_inverse(np.arctan2(s, c))
        along = np.sin(h)[:, None] * (tang / s[:, None])
        cos_h = np.cos(h)
    else:
        cb, sb = np.cos(phi.beta * s), np.sin(phi.beta * s)
        along = (cb + c * sb / s)[:, None] * tang
        cos_h = c * cb - s * sb
    out = cos_h[:, None] * unit[None, :] + along
    out[polar] = units[polar]
    return out / np.linalg.norm(out, axis=1)[:, None]


def _radial_broadcast(m, pts, displacement=False):
    """A radial extension of a latitude map written with broadcasts."""
    r = np.linalg.norm(pts, axis=1)
    nz = r > 0.0
    out = np.zeros_like(pts) if displacement else pts.copy()
    u = pts[nz] / r[nz, None]
    image = _latitude_broadcast(m.sphere_map, u)
    out[nz] = r[nz, None] * (image - u if displacement else image)
    return out


def _radial_batches(axis, rng):
    """All-nonzero rows, the same with zero rows mixed in, and rows at
    both poles, near them and at signed zeros."""
    n = axis.size
    unit = axis / np.linalg.norm(axis)
    pts = random_points(rng, n, 4000, scale=50.0)
    mixed = pts.copy()
    mixed[::7] = 0.0
    mixed[3::7] = -0.0
    poles = np.vstack([unit * 3.0, -unit * 0.25, unit * 1e-300, -unit * 7e5,
                       unit + 1e-13, -unit + 1e-14])
    signed = pts[:50].copy()
    signed[:, -1] = -0.0
    return [pts, mixed, np.vstack([poles, pts[:100], poles]), signed]


class TestBroadcastFormulas:
    """The latitude maps, the radial extension and the replication
    transport, written column by column and in place, equal the whole-row
    broadcasts they replace bit for bit and leave their inputs unchanged."""

    @pytest.mark.parametrize("beta", [0.45, -0.8])
    @pytest.mark.parametrize("axis", [[0.0, 1.0], [0.3, -1.1, 2.4], [1.0, 2.0, -0.5, 0.3]])
    def test_latitude_maps(self, beta, axis):
        axis = np.array(axis)
        rng = np.random.default_rng(axis.size)
        phi = M.LatitudeSphereMap(beta, axis)
        for batch in _radial_batches(axis, rng):
            units = batch[np.linalg.norm(batch, axis=1) > 0.0]
            units = units / np.linalg.norm(units, axis=1)[:, None]
            for node in (phi, phi.inverse()):
                before = units.copy()
                got = node.apply(units)
                assert np.array_equal(got.view(np.uint64),
                                      _latitude_broadcast(node, units).view(np.uint64))
                assert np.array_equal(units.view(np.uint64), before.view(np.uint64))

    @pytest.mark.parametrize("beta", [0.45, -0.8])
    @pytest.mark.parametrize("axis", [[0.0, 1.0], [0.3, -1.1, 2.4], [1.0, 2.0, -0.5, 0.3]])
    def test_radial_extension(self, beta, axis):
        axis = np.array(axis)
        rng = np.random.default_rng(axis.size)
        f = M.radial_extension(M.LatitudeSphereMap(beta, axis))
        for m in (f, f.inverse()):
            for pts in _radial_batches(axis, rng):
                before = pts.copy()
                for displacement, node in ((False, m._eval), (True, m._displacement)):
                    want = _radial_broadcast(m, pts, displacement)
                    assert np.array_equal(node(pts).view(np.uint64), want.view(np.uint64))
                    assert np.array_equal(pts.view(np.uint64), before.view(np.uint64))

    @pytest.mark.parametrize("case", ["twist", "twist-pl", "uniform", "listed"])
    def test_replication_transport(self, case):
        m = _replication_cases()[case]
        rng = np.random.default_rng(len(case) + 50)
        j = rng.integers(0, 8, 500)
        for p in (rng.uniform(-1.0, 1.0, size=(j.size, m.dim)), -np.zeros((1, m.dim))):
            c, s = m._disk(j)
            want = c[:, None] * M.unit_axis(m.dim) + s[:, None] * p
            assert np.array_equal(m.disk_points(j, p).view(np.uint64), want.view(np.uint64))
        pts = _replication_points(m, rng)
        before = pts.copy()
        for node in (m._eval, m._eval_inverse, m._displacement):
            node(pts)
            assert np.array_equal(pts.view(np.uint64), before.view(np.uint64))


# =====================================================================
# Twist disk maps
# =====================================================================

class TestTwistDiskMap:
    def test_zero_profile_is_identity(self):
        theta = CubicProfile.from_hermite([0.0, 1.0], [0.0, 0.0], [0.0, 0.0])
        g = M.TwistDiskMap(theta, (0, 1), 2)
        rng = np.random.default_rng(7)
        pts = rng.normal(size=(1000, 2))
        assert np.array_equal(g.apply(pts), pts)

    def test_fixes_origin(self):
        g = M.make_twist_disk_map(dim=3)
        assert np.array_equal(g.apply(np.zeros((1, 3)))[0], np.zeros(3))

    def test_norm_preserved(self):
        g = M.make_twist_disk_map(dim=2)
        rng = np.random.default_rng(8)
        pts = rng.normal(size=(10_000, 2)) * 0.5
        out = g.apply(pts)
        np.testing.assert_allclose(
            np.linalg.norm(out, axis=1), np.linalg.norm(pts, axis=1), atol=1e-12
        )

    def test_identity_outside_unit_ball_exactly(self):
        g = M.make_twist_disk_map(dim=2)
        rng = np.random.default_rng(9)
        pts = unit_rows(rng.normal(size=(2000, 2))) * rng.uniform(1.0, 5.0, (2000, 1))
        assert np.array_equal(g.apply(pts), pts)

    def test_support_violation_rejected(self):
        bad = CubicProfile.from_hermite([0.0, 1.0], [0.5, 0.3], [0.0, 0.0])
        with pytest.raises(SupportViolationError):
            M.TwistDiskMap(bad, (0, 1), 2)

    def test_inverse_roundtrip(self):
        g = M.make_twist_disk_map(dim=2)
        rng = np.random.default_rng(10)
        pts = rng.normal(size=(5000, 2))
        back = g.inverse().apply(g.apply(pts))
        assert np.abs(back - pts).max() <= 1e-12


# =====================================================================
# Disk replication
# =====================================================================

class TestLocateReplicationDisk:
    def test_unit_disk(self):
        assert M.locate_replication_disk([0.5, 0.0]) == 0

    def test_first_disk_center(self):
        assert M.locate_replication_disk([4.0, 0.0]) == 1

    def test_gap_point(self):
        # 1 < 1.5 and ||1.5 - 4|| = 2.5 > 2: in no disk
        assert M.locate_replication_disk([1.5, 0.0]) is None

    def test_boundary_belongs_to_disk(self):
        assert M.locate_replication_disk([1.0, 0.0]) == 0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(11)
        for _ in range(3000):
            j = int(rng.integers(0, 13))
            center = np.zeros(2)
            center[0] = 4.0 ** j if j > 0 else 0.0
            scale = 2.0 ** j if j > 0 else 1.0
            u = rng.normal(size=2)
            u /= np.linalg.norm(u)
            r = rng.uniform(0, 1) ** 0.5
            v = center + scale * r * u
            assert M.locate_replication_disk(v) == j
        # points in no disk
        for _ in range(3000):
            v = rng.normal(size=2) * rng.uniform(0, 300)
            expected = None
            for j in range(0, 20):
                center = 4.0 ** j if j > 0 else 0.0
                scale = 2.0 ** j if j > 0 else 1.0
                if (v[0] - center) ** 2 + v[1] ** 2 <= scale * scale:
                    expected = j
                    break
            assert M.locate_replication_disk(v) == expected

    @staticmethod
    def brute_force(pts):
        # the first disk whose rounded squared distance test holds
        found = np.full(pts.shape[0], -1)
        for j in range(63, -1, -1):
            center = 4.0 ** j if j > 0 else 0.0
            hit = (pts[:, 0] - center) ** 2 + pts[:, 1] ** 2 <= (2.0 ** j) ** 2
            found[hit] = j
        return found

    def test_disk_ends_to_one_ulp(self):
        # 2 - 2^-52 lies on disk 1: its rounded distance to 4 is 2
        ends = []
        for j in range(0, 40):
            center = 4.0 ** j if j > 0 else 0.0
            for end in (center - 2.0 ** j, center + 2.0 ** j):
                ends += [np.nextafter(end, -np.inf), end, np.nextafter(end, np.inf)]
        x1 = np.array(ends)
        pts = np.column_stack([np.concatenate([x1, -x1, x1]),
                               np.concatenate([0 * x1, 0 * x1, 1e-9 * x1])])
        assert np.array_equal(M.locate_replication_disks(pts), self.brute_force(pts))
        assert M.locate_replication_disk([2.0 - 2.0 ** -52, 0.0]) == 1
        # 4^511 is the last finite centre
        assert M.locate_replication_disk([4.0 ** 511 + 2.0 ** 511, 0.0]) == 511

    def test_far_points_match_brute_force(self):
        rng = np.random.default_rng(14)
        u = rng.normal(size=(20_000, 2))
        pts = u / np.linalg.norm(u, axis=1)[:, None] * 10.0 ** rng.uniform(-3, 6, (20_000, 1))
        assert np.array_equal(M.locate_replication_disks(pts), self.brute_force(pts))

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_huge_and_non_finite_points_lie_in_no_disk(self):
        pts = np.array([[1e300, 0.0], [-1e300, 1e300], [1.7e308, 0.0], [-1.7e308, 0.0],
                        [np.inf, 0.0], [-np.inf, 0.0], [np.nan, 0.0]])
        assert np.array_equal(M.locate_replication_disks(pts), [-1] * 7)
        f = M.disk_replication(M.make_twist_disk_map(dim=2))
        assert np.array_equal(M.evaluate_points(f, pts[:2]), pts[:2])


class TestDiskReplication:
    def test_identity_disk_map_gives_identity(self):
        theta = CubicProfile.from_hermite([0.0, 1.0], [0.0, 0.0], [0.0, 0.0])
        f = M.disk_replication(M.TwistDiskMap(theta, (0, 1), 2))
        rng = np.random.default_rng(12)
        pts = random_points(rng, 2, 2000, scale=50.0)
        assert np.array_equal(M.evaluate_points(f, pts), pts)

    def test_gap_point_passes_through(self):
        f = M.disk_replication(M.make_twist_disk_map(dim=2))
        v = np.array([1.5, 0.0])  # between the unit disk and the next
        assert np.array_equal(M.evaluate(f, v), v)

    def test_fixes_complement(self):
        f = M.disk_replication(M.make_twist_disk_map(dim=2))
        rng = np.random.default_rng(13)
        pts = random_points(rng, 2, 20_000, scale=100.0)
        outside = np.array(
            [M.locate_replication_disk(p) is None for p in pts]
        )
        out = M.evaluate_points(f, pts)
        assert np.array_equal(out[outside], pts[outside])

    def test_conjugation_on_disk_two(self):
        # point 16 e1 + 4 x0 must map to 16 e1 + 4 g(x0)
        g = M.make_twist_disk_map(dim=2)
        f = M.disk_replication(g)
        x0 = np.array([0.25, -0.375])
        v = np.array([16.0, 0.0]) + 4.0 * x0
        expected = np.array([16.0, 0.0]) + 4.0 * M.disk_apply(g, x0)
        np.testing.assert_allclose(M.evaluate(f, v), expected, atol=1e-12)

    def test_restriction_to_unit_disk_is_bit_exact(self):
        g = M.make_twist_disk_map(dim=2)
        f = M.disk_replication(g)
        rng = np.random.default_rng(14)
        pts = rng.normal(size=(1000, 2)) * 0.4
        assert np.array_equal(M.evaluate_points(f, pts), g.apply(pts))

    def test_roundtrip(self):
        f = M.disk_replication(M.make_twist_disk_map(dim=2))
        rng = np.random.default_rng(15)
        pts = random_points(rng, 2, 10_000, scale=100.0)
        assert roundtrip_residual(f, pts) <= 1e-9

    def test_pl_disk_roundtrip(self):
        g = M.pl_disk_map(pl_twist_example(2, 6, 0.3))
        f = M.disk_replication(g)
        rng = np.random.default_rng(16)
        pts = random_points(rng, 2, 2000, scale=50.0)
        assert roundtrip_residual(f, pts) <= 1e-9

    def test_pl_disk_inverse_keeps_the_exact_constant(self, monkeypatch):
        sweeps = []
        svd = bilip.pl.largest_singular_values
        monkeypatch.setattr(bilip.pl, "largest_singular_values",
                            lambda mats: sweeps.append(len(mats)) or svd(mats))
        g = M.pl_disk_map(pl_twist_example(2, 8, 0.3))
        f = M.disk_replication(g)
        pts = 0.5 * np.random.default_rng(3).uniform(-1, 1, size=(6, 2))
        M.evaluate_inverse_points(f, pts)
        assert g.inverse().inverse().lambda_claimed == g.lambda_claimed
        assert sweeps == [2 * 128]  # the 128 differentials and their inverses, once

    @pytest.mark.parametrize("radius", [0.5, 1.0, 5.0, 6.0, 20.0, 300.0, 1e6])
    def test_disk_count(self, radius):
        # disks j >= 1 count while 4^j + 2^j <= radius; the unit disk always
        count = 1
        while 4.0 ** count + 2.0 ** count <= radius:
            count += 1
        f = M.disk_replication(M.make_twist_disk_map(dim=2))
        assert f.disk_count(radius) == count

    def test_drift_law_exact_to_k40(self):
        g = M.make_twist_disk_map(dim=2)
        f = M.disk_replication(g)
        x0 = np.array([0.3125, -0.25])
        base = np.linalg.norm(M.disk_apply(g, x0) - x0)
        for k in (1, 2, 10, 25, 40):
            v = np.zeros(2)
            v[0] = 4.0 ** k
            v += 2.0 ** k * x0
            drift = np.linalg.norm(M.displacement(f, v))
            assert drift == pytest.approx(2.0 ** k * base, rel=1e-12)


class TestTranslatedReplication:
    def test_all_identity(self):
        theta = CubicProfile.from_hermite([0.0, 1.0], [0.0, 0.0], [0.0, 0.0])
        ident = M.TwistDiskMap(theta, (0, 1), 2)
        f = M.translated_replication(disk_maps=[ident, ident])
        rng = np.random.default_rng(17)
        pts = random_points(rng, 2, 2000, scale=10.0)
        assert np.array_equal(M.evaluate_points(f, pts), pts)

    def test_uniform_far_disk(self):
        g = M.make_twist_disk_map(dim=2)
        f = M.translated_replication(uniform=g)
        j = 10 ** 6
        x0 = np.array([0.25, 0.5])  # dyadic: the translated point is exact
        v = np.array([2.0 * j, 0.0]) + x0
        expected = np.array([2.0 * j, 0.0]) + M.disk_apply(g, x0)
        assert np.array_equal(M.evaluate(f, v), expected)

    def test_odd_integer_points_fixed(self):
        g = M.make_twist_disk_map(dim=2)
        f = M.translated_replication(uniform=g)
        for j in range(0, 12):
            v = np.array([2.0 * j + 1.0, 0.0])
            assert np.array_equal(M.evaluate(f, v), v)

    def test_fixed_set_is_one_dense_on_grid(self):
        g = M.make_twist_disk_map(dim=2)
        f = M.translated_replication(uniform=g)
        xs = np.arange(-3.0, 25.0, 0.25)
        ys = np.arange(-3.0, 3.0, 0.25)
        grid = np.array([[x, y] for x in xs for y in ys])
        out = M.evaluate_points(f, grid)
        fixed = grid[np.all(out == grid, axis=1)]
        from scipy.spatial import cKDTree

        d, _ = cKDTree(fixed).query(grid, k=1)
        assert d.max() <= 1.0 + 0.25 * np.sqrt(2)  # 1-dense up to grid spacing

    def test_list_mode_indices(self):
        g = M.make_twist_disk_map(dim=2)
        f = M.translated_replication(disk_maps=[None, g])
        x0 = np.array([0.25, 0.125])
        v0 = x0.copy()                      # disk 0 holds the identity
        v1 = np.array([2.0, 0.0]) + x0      # disk 1 holds g
        assert np.array_equal(M.evaluate(f, v0), v0)
        expected = np.array([2.0, 0.0]) + M.disk_apply(g, x0)
        assert np.array_equal(M.evaluate(f, v1), expected)

    @pytest.mark.parametrize("radius", [0.5, 1.0, 5.0, 6.0, 20.0, 300.0, 1e6])
    def test_disk_count(self, radius):
        g = M.make_twist_disk_map(dim=2)
        count = 1 + int(min(radius / 2.0, 64.0))  # one disk per two units, at most 65
        assert M.translated_replication(uniform=g).disk_count(radius) == count
        for listed in (1, 3, 100):
            f = M.translated_replication(disk_maps=[g] * listed)
            assert f.disk_count(radius) == min(count, listed)

    def test_roundtrip(self):
        f = M.translated_replication(uniform=M.make_twist_disk_map(dim=2))
        rng = np.random.default_rng(32)
        pts = random_points(rng, 2, 10_000, scale=30.0)
        assert roundtrip_residual(f, pts) <= 1e-9

    def test_disjoint_supports_commute_exactly(self):
        g = M.make_twist_disk_map(dim=2, amplitude=0.7)
        h = M.make_twist_disk_map(dim=2, amplitude=-0.4)
        a = M.translated_replication(disk_maps=[g])
        b = M.translated_replication(disk_maps=[None, h])
        rng = np.random.default_rng(18)
        pts = random_points(rng, 2, 5000, scale=4.0)
        ab = M.evaluate_points(M.compose(a, b), pts)
        ba = M.evaluate_points(M.compose(b, a), pts)
        assert np.array_equal(ab, ba)

    def test_far_rows_lie_in_no_disk_without_a_cast_warning(self):
        g = M.make_twist_disk_map(dim=2)
        f = M.translated_replication(uniform=g)
        far = np.array([[2.0 ** 64, 0.5], [-2.0 ** 64, 0.5], [1e308, 0.0],
                        [-1e308, 0.25]])
        near = np.array([2.0 ** 63 - 1024.0, 0.5])  # the centre of a disk
        with warnings.catch_warnings(), np.errstate(all="warn"):
            warnings.simplefilter("error", RuntimeWarning)
            assert np.array_equal(M.evaluate_points(f, far), far)
            image = M.evaluate(f, near)
        assert image[1] == M.disk_apply(g, [0.0, 0.5])[1] != 0.5


class _CountingDiskMap(M.DiskMap):
    """A disk map that counts its ``apply`` and ``inverse`` calls."""

    def __init__(self, inner, counts=None):
        self.inner = inner
        self.dim = inner.dim
        self.counts = {"apply": 0, "inverse": 0} if counts is None else counts

    def apply(self, pts):
        self.counts["apply"] += 1
        return self.inner.apply(pts)

    def inverse(self):
        self.counts["inverse"] += 1
        return _CountingDiskMap(self.inner.inverse(), self.counts)


def _hand_placed(m, jj):
    """Disk map, centre and scale of disk ``jj`` of a replication node,
    placed by hand: D(4^j e1, 2^j) for a disk replication, D(2j e1, 1)
    for a translated one."""
    center = np.zeros(m.dim)
    if isinstance(m, M.DiskReplicationMap):
        center[0] = 4.0 ** jj if jj > 0 else 0.0
        return m.disk_map, center, 2.0 ** jj
    center[0] = 2.0 * jj
    return (m.uniform if m.uniform is not None else m.disk_maps[jj]), center, 1.0


def _disk_by_disk(m, pts, inverse=False, displacement=False):
    """A replication node's image (or inverse image, or displacement),
    one hand-placed disk at a time, over the first 16 disks (all that
    ``_replication_points`` reaches) or the listed ones; a row on two
    disks goes to the lower one."""
    listed = getattr(m, "disk_maps", None)
    j = np.full(pts.shape[0], -1)
    for jj in reversed(range(16 if listed is None else len(listed))):
        _, center, scale = _hand_placed(m, jj)
        j[(pts[:, 0] - center[0]) ** 2 + row_dots(pts[:, 1:], pts[:, 1:])
          <= scale * scale] = jj
    out = np.zeros_like(pts) if displacement else pts.copy()
    for jj in np.unique(j[j >= 0]):
        g, center, scale = _hand_placed(m, int(jj))
        if g is None:
            continue
        if inverse:
            g = g.inverse()
        rows = j == jj
        local = (pts[rows] - center) / scale
        moved = g.apply(local)
        out[rows] = scale * (moved - local) if displacement else center + scale * moved
    return out


def _replication_cases():
    twist = M.make_twist_disk_map(dim=2, amplitude=0.8)
    pl = M.pl_disk_map(pl_twist_example(2, 6, 0.2))
    other = M.make_twist_disk_map(dim=2, amplitude=-0.5)
    return {
        "twist": M.disk_replication(twist),
        "twist-pl": M.disk_replication(M.compose_disk_maps(twist, pl)),
        "uniform": M.translated_replication(uniform=twist),
        "listed": M.translated_replication([twist, None, other, None, pl, twist]),
    }


def _replication_points(m, rng):
    """Rows spread over the first disks of ``m`` and the gaps between
    them, the touching points x1 = 2j + 1 and rows with -0.0 entries."""
    n = m.dim
    j = rng.integers(0, 8, 3000)
    pts = m.disk_points(j, rng.uniform(-1.1, 1.1, size=(j.size, n)))
    touching = np.zeros((16, n))
    touching[:, 0] = 2.0 * np.arange(16) + 1.0
    signed = pts[:600].copy()
    signed[:200, 1:] = -0.0
    signed[200:400, 0] = -0.0
    signed[400:] *= -0.0
    return np.vstack([pts, touching, -touching, signed])


class TestReplicationMatchesDiskByDisk:
    """Every replication node transports each disk's rows by one
    similarity and one call per disk map; the result equals the
    disk-by-disk transport bit for bit."""

    @pytest.mark.parametrize("op", ["eval", "inverse", "displacement"])
    @pytest.mark.parametrize("case", ["twist", "twist-pl", "uniform", "listed"])
    def test_bits_match(self, case, op):
        m = _replication_cases()[case]
        pts = _replication_points(m, np.random.default_rng(len(case)))
        node = {"eval": M.evaluate_points, "inverse": M.evaluate_inverse_points,
                "displacement": M.displacement_points}[op]
        got = node(m, pts)
        want = _disk_by_disk(m, pts, inverse=op == "inverse",
                             displacement=op == "displacement")
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        one = np.array([node(m, row[None, :])[0] for row in pts[::37]])
        assert np.array_equal(one.view(np.uint64), want[::37].view(np.uint64))

    @pytest.mark.parametrize("build, groups", [
        (M.disk_replication, 1),
        (lambda g: M.translated_replication(uniform=g), 1),
        (lambda g: M.translated_replication([g, None, g]), 2),  # one per listed entry
    ])
    def test_one_call_per_disk_map(self, build, groups):
        g = _CountingDiskMap(M.make_twist_disk_map(dim=2))
        m = build(g)
        # rows on several disks of either family, and one in a gap
        pts = np.array([[0.5, 0.0], [2.0, 0.5], [4.0, 0.5], [4.5, 0.0], [16.0, 1.0]])
        M.evaluate_points(m, pts)
        M.evaluate_inverse_points(m, pts)
        assert g.counts == {"apply": 2 * groups, "inverse": groups}


def _touching(js):
    """x1 = 2j + 1 and its neighbouring floats on either side."""
    x = 2.0 * np.asarray(js, dtype=float) + 1.0
    return np.concatenate([x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf)])


class TestTranslatedLocate:
    """Disk indices at the touching points x1 = 2j + 1, where the lower
    disk j wins, at their neighbouring floats, past the cap, past the
    end of the list and at non-finite values. The expected indices are
    those of the scan over the candidates rint(x1 / 2) - 1, + 0, + 1 in
    that order, first hit wins."""

    CASES = {
        "uniform": (
            lambda g: M.translated_replication(uniform=g),
            np.concatenate([_touching([-2, -1, 0, 1, 2, 7, 2 ** 40]),
                            [2.0 ** 63, np.nextafter(2.0 ** 63, np.inf), -2.0 ** 63,
                             1e300, np.nan, np.inf, -np.inf]]),
            [-1, 0, 0, 1, 2, 7, 2 ** 40,
             -1, -1, 0, 1, 2, 7, 2 ** 40,
             -1, 0, 1, 2, 3, 8, 2 ** 40 + 1,
             # 2(2^62 - 1) rounds to 2^63, the centre of disk 2^62
             2 ** 62 - 1, -1, -1, -1, -1, -1, -1],
        ),
        "listed": (
            lambda g: M.translated_replication([g, None, g, None]),
            np.concatenate([_touching([-1, 0, 1, 2, 3]), [1e300, np.nan, np.inf]]),
            [0, 0, 1, 2, 3,
             -1, 0, 1, 2, 3,
             0, 1, 2, 3, -1,
             -1, -1, -1],
        ),
    }

    @pytest.mark.parametrize("case", ["uniform", "listed"])
    def test_pinned_indices(self, case):
        build, x1, want = self.CASES[case]
        m = build(M.make_twist_disk_map(dim=2))
        pts = np.stack([x1, np.zeros_like(x1)], axis=1)
        assert m._locate(pts).tolist() == want
        pts[:, 1] = np.nan
        assert m._locate(pts).tolist() == [-1] * len(want)


# =====================================================================
# Spiral maps
# =====================================================================

class TestSpiralMaps:
    def test_constant_profile_is_linear(self):
        a = rotation_matrix((0, 1), 0.9, 3)
        f = M.spiral_map(M.ConstantRotationProfile(a))
        rng = np.random.default_rng(19)
        pts = random_points(rng, 3, 2000)
        np.testing.assert_allclose(M.evaluate_points(f, pts), pts @ a.T, atol=1e-12)

    def test_norm_preserved(self):
        f = M.spiral_map(M.LogSpiralProfile(1.0, (0, 1), 3))
        rng = np.random.default_rng(20)
        pts = random_points(rng, 3, 10_000, scale=100.0)
        out = M.evaluate_points(f, pts)
        r_in = np.linalg.norm(pts, axis=1)
        r_out = np.linalg.norm(out, axis=1)
        assert (np.abs(r_out - r_in) / np.maximum(1.0, r_in)).max() <= 1e-9

    def test_log_spiral_closed_form(self):
        # at ||x|| = e the rotation angle is c * ln(e) = c
        f = M.spiral_map(M.LogSpiralProfile(np.pi / 2, (0, 1), 2))
        x = np.array([np.e, 0.0])
        np.testing.assert_allclose(M.evaluate(f, x), [0.0, np.e], atol=1e-12)

    def test_origin_fixed(self):
        f = M.spiral_map(M.LogSpiralProfile(2.0, (0, 1), 2))
        assert np.array_equal(M.evaluate(f, [0.0, 0.0]), [0.0, 0.0])

    def test_roundtrip(self):
        f = M.spiral_map(M.LogSpiralProfile(1.5, (0, 1), 3))
        rng = np.random.default_rng(21)
        pts = random_points(rng, 3, 10_000, scale=100.0)
        assert roundtrip_residual(f, pts) <= 1e-9

    def test_cutoff_identity_far_out(self):
        p = M.CutoffRotationProfile(bump_profile(1.0, 1.0, 3.0), (0, 1), 2)
        f = M.spiral_map(p)
        rng = np.random.default_rng(22)
        pts = unit_rows(rng.normal(size=(1000, 2))) * rng.uniform(3.0, 100.0, (1000, 1))
        assert np.array_equal(M.evaluate_points(f, pts), pts)

    def test_jacobian_bounded_by_claimed_constant(self):
        c = 1.0
        f = M.spiral_map(M.LogSpiralProfile(c, (0, 1), 2))
        rng = np.random.default_rng(23)
        for _ in range(50):
            x = rng.normal(size=2) * rng.uniform(0.1, 100)
            j = M.jacobian_fd(f, x)
            assert operator_norm(j) <= 2 * c + 1 + 1e-3

    def test_profile_certificates(self):
        from bilip.maps import profile_derivative_check

        for p in (
            M.LogSpiralProfile(2.0, (0, 1), 2),
            M.CutoffRotationProfile(bump_profile(1.2, 0.5, 4.0), (0, 1), 3),
            M.ConstantRotationProfile(rotation_matrix((0, 1), 1.0, 2)),
        ):
            measured = profile_derivative_check(p)
            assert measured <= p.c_bound * (1 + 1e-6) + 1e-9

    def test_profile_stays_in_rotation_group(self):
        p = M.LogSpiralProfile(1.3, (0, 1), 3)
        for t in np.logspace(-3, 6, 40):
            mat = p.matrix(t)
            assert orthogonality_defect(mat) <= 1e-12
            assert abs(np.linalg.det(mat) - 1.0) <= 1e-12


# =====================================================================
# Expression algebra
# =====================================================================

class TestExpressionAlgebra:
    def test_identity_eval(self):
        f = M.identity(3)
        v = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(M.evaluate(f, v), v)

    def test_affine_inverse(self):
        f = M.affine([[2.0, 0.0], [0.0, 2.0]])
        np.testing.assert_allclose(
            M.evaluate_inverse(f, [2.0, 0.0]), [1.0, 0.0], atol=1e-14
        )

    def test_singular_affine_has_no_inverse(self):
        f = M.affine([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(NotInvertibleError):
            M.evaluate_inverse(f, [1.0, 1.0])

    def test_compose_with_identity(self):
        g = M.disk_replication(M.make_twist_disk_map(dim=2))
        f = M.compose(M.identity(2), g)
        rng = np.random.default_rng(24)
        pts = random_points(rng, 2, 1000, scale=20.0)
        assert np.array_equal(M.evaluate_points(f, pts), M.evaluate_points(g, pts))

    def test_replication_is_homomorphism(self):
        g = M.make_twist_disk_map(dim=2, amplitude=0.8)
        h = M.make_twist_disk_map(dim=2, amplitude=-0.5)
        lhs = M.disk_replication(M.compose_disk_maps(g, h))
        rhs = M.compose(M.disk_replication(g), M.disk_replication(h))
        rng = np.random.default_rng(25)
        pts = random_points(rng, 2, 10_000, scale=100.0)
        diff = M.evaluate_points(lhs, pts) - M.evaluate_points(rhs, pts)
        assert np.linalg.norm(diff, axis=1).max() <= 1e-9

    def test_product_eval_and_drift_identity(self):
        f = M.radial_extension(M.make_latitude_sphere_map(0.5, dim=2))
        g = M.spiral_map(M.LogSpiralProfile(1.0, (0, 1), 2))
        h = M.product_map(f, g)
        rng = np.random.default_rng(26)
        pts = random_points(rng, 4, 10_000, scale=10.0)
        out = M.evaluate_points(h, pts)
        np.testing.assert_array_equal(out[:, :2], M.evaluate_points(f, pts[:, :2]))
        np.testing.assert_array_equal(out[:, 2:], M.evaluate_points(g, pts[:, 2:]))
        # || h(p) - p ||_1 = || f(x) - x || + || g(y) - y || pointwise
        disp = M.displacement_points(h, pts)
        lhs = np.linalg.norm(disp[:, :2], axis=1) + np.linalg.norm(disp[:, 2:], axis=1)
        rhs = np.linalg.norm(
            M.displacement_points(f, pts[:, :2]), axis=1
        ) + np.linalg.norm(M.displacement_points(g, pts[:, 2:]), axis=1)
        assert np.abs(lhs - rhs).max() <= 1e-12 * max(1.0, rhs.max())

    def test_product_identity(self):
        h = M.product_map(M.identity(2), M.identity(3))
        rng = np.random.default_rng(27)
        pts = random_points(rng, 5, 100)
        assert np.array_equal(M.evaluate_points(h, pts), pts)

    def test_eval_after_eval_inverse_recovers_point(self):
        # the stated direction: f(f^{-1}(v)) = v to 1e-9 * max(1, ||v||)
        builders = [
            M.radial_extension(M.make_latitude_sphere_map(0.6, dim=2)),
            M.disk_replication(M.make_twist_disk_map(dim=2)),
            M.translated_replication(uniform=M.make_twist_disk_map(dim=2)),
            M.spiral_map(M.LogSpiralProfile(1.0, (0, 1), 2)),
            M.pl_homeomorphism(pl_twist_example(2, 4, 0.3)),
            M.affine([[2.0, 1.0], [0.0, 1.0]], [0.5, -0.5]),
        ]
        rng = np.random.default_rng(30)
        pts = random_points(rng, 2, 2000, scale=40.0)
        for f in builders:
            fwd = M.evaluate_points(f, M.evaluate_inverse_points(f, pts))
            scale = np.maximum(1.0, np.linalg.norm(pts, axis=1))
            res = (np.linalg.norm(fwd - pts, axis=1) / scale).max()
            assert res <= 1e-9, type(f).__name__

    def test_inverse_node(self):
        f = M.spiral_map(M.LogSpiralProfile(1.0, (0, 1), 2))
        finv = M.inverse(f)
        assert M.inverse(finv) is f
        rng = np.random.default_rng(28)
        pts = random_points(rng, 2, 1000)
        np.testing.assert_allclose(
            M.evaluate_points(finv, M.evaluate_points(f, pts)), pts, atol=1e-9
        )

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            M.compose(M.identity(2), M.identity(3))
        with pytest.raises(DimensionMismatchError):
            M.evaluate(M.identity(2), [1.0, 2.0, 3.0])

    def test_non_finite_point_rejected(self):
        with pytest.raises(InvalidPointError):
            M.evaluate(M.identity(2), [np.nan, 0.0])

    def test_jacobian_of_affine_recovers_matrix(self):
        a = np.array([[1.0, 2.0], [-0.5, 3.0]])
        f = M.affine(a, [4.0, -1.0])
        j = M.jacobian_fd(f, [0.3, 0.7])
        assert np.abs(j - a).max() <= 1e-8

    def test_jacobian_of_identity(self):
        j = M.jacobian_fd(M.identity(3), [1.0, -2.0, 0.5])
        assert np.abs(j - np.eye(3)).max() <= 1e-8

    def test_pl_homeomorphism_node(self):
        f = M.pl_homeomorphism(pl_twist_example(2, 6, 0.3))
        rng = np.random.default_rng(29)
        pts = random_points(rng, 2, 2000, scale=3.0)
        assert roundtrip_residual(f, pts) <= 1e-9

    def test_concurrent_evaluation_matches_serial(self):
        # expressions are immutable and eval is pure: many threads may
        # evaluate the same tree with no synchronization
        from concurrent.futures import ThreadPoolExecutor

        f = M.disk_replication(M.make_twist_disk_map(dim=2))
        rng = np.random.default_rng(31)
        pts = rng.normal(size=(40_000, 2)) * 100.0
        serial = M.evaluate_points(f, pts)
        with ThreadPoolExecutor(max_workers=8) as pool:
            chunks = list(pool.map(lambda c: M.evaluate_points(f, c),
                                   np.array_split(pts, 16)))
        assert np.array_equal(serial, np.vstack(chunks))

    def test_claimed_constants_propagate(self):
        phi = M.make_latitude_sphere_map(0.5, dim=2)
        assert phi.lambda_claimed == pytest.approx(2.0)
        f = M.radial_extension(phi)
        assert f.lambda_claimed == pytest.approx(3.0)
        g = M.make_twist_disk_map(dim=2)
        psi_g = M.disk_replication(g)
        assert psi_g.lambda_claimed == g.lambda_claimed
        s = M.spiral_map(M.LogSpiralProfile(1.0, (0, 1), 2))
        assert s.lambda_claimed == pytest.approx(3.0)
        prod = M.product_map(f, s)
        assert prod.lambda_claimed == pytest.approx(3.0)


_LATITUDE = M.make_latitude_sphere_map(0.5, dim=2)
_IDENTITY = M.identity(2)


@pytest.mark.parametrize("build, family", [
    pytest.param(lambda: M.ConjugatedSphereMap(np.eye(2), _IDENTITY), "SphereMap",
                 id="conjugated"),
    pytest.param(lambda: M.ComposedSphereMap([_LATITUDE, _IDENTITY]), "SphereMap",
                 id="sphere_compose"),
    pytest.param(lambda: M.TwistDiskMap(_IDENTITY, (0, 1), 2), "CubicProfile", id="twist"),
    pytest.param(lambda: M.PLDiskMap(_IDENTITY), "PLMap", id="pl_disk"),
    pytest.param(lambda: M.ComposedDiskMap([_LATITUDE]), "DiskMap", id="disk_compose"),
    pytest.param(lambda: M.CutoffRotationProfile(_IDENTITY, (0, 1), 2), "CubicProfile",
                 id="cutoff_rotation"),
    pytest.param(lambda: M.RadialExtensionMap(_IDENTITY), "SphereMap", id="radial_extension"),
    pytest.param(lambda: M.DiskReplicationMap(_LATITUDE), "DiskMap", id="disk_replication"),
    pytest.param(lambda: M.TranslatedReplicationMap([None, _IDENTITY]), "DiskMap",
                 id="translated_replication-maps"),
    pytest.param(lambda: M.TranslatedReplicationMap(uniform=_LATITUDE), "DiskMap",
                 id="translated_replication-uniform"),
    pytest.param(lambda: M.ProductMap(_IDENTITY, _LATITUDE), "MapExpr", id="product"),
    pytest.param(lambda: M.SpiralMap(_LATITUDE), "SpiralProfile", id="spiral"),
    pytest.param(lambda: M.PLHomeomorphismMap(_IDENTITY), "PLMap", id="pl"),
    pytest.param(lambda: M.CompositionMap([_IDENTITY, _LATITUDE]), "MapExpr", id="compose"),
    pytest.param(lambda: M.InverseMap(_LATITUDE), "MapExpr", id="inverse"),
])
def test_part_of_another_family_is_refused(build, family):
    """Every constructor that takes a part checks it against its own
    family and names that family."""
    with pytest.raises(InvalidPointError, match=f"expected a {family} part"):
        build()
