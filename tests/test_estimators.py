"""Tests for sampled bi-Lipschitz bounds, QI checks, covering radii,
drift witnesses and graph length metrics."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bilip import estimators as est
from bilip import maps as M
from bilip.core import rotation_matrix
from bilip.errors import (
    DisconnectedCloudError,
    EmptyRegionError,
    InsufficientSamplesError,
    InvalidPointError,
    NoWitnessError,
    TrivialWitnessError,
)
from bilip.profiles import bump_profile


def cfg(seed=7, radius=10.0, n_pairs=10_000, dim=2, **kw):
    return est.SamplerConfig(
        seed=seed, region=est.ball((0.0,) * dim, radius), n_pairs=n_pairs, **kw
    )


class TestSamplerConfig:
    def test_validation(self):
        with pytest.raises(InvalidPointError):
            est.SamplerConfig(seed=-1, region=est.ball((0, 0), 1.0), n_pairs=10)
        with pytest.raises(InvalidPointError):
            est.SamplerConfig(seed=1, region=est.ball((0, 0), 1.0), n_pairs=0)
        with pytest.raises(InvalidPointError):
            est.SamplerConfig(
                seed=1, region=est.ball((0, 0), 1.0), n_pairs=10, mix=(0.5, 0.5, 0.5)
            )

    def test_empty_regions_rejected(self):
        with pytest.raises(EmptyRegionError):
            est.ball((0.0, 0.0), 0.0)
        with pytest.raises(EmptyRegionError):
            est.box((0.0, 0.0), (0.0, 1.0))
        with pytest.raises(EmptyRegionError):
            est.annulus((0.0, 0.0), 2.0, 1.0)

    def test_region_samples_land_inside(self):
        rng = np.random.default_rng(0)
        for region in (
            est.ball((1.0, -2.0), 3.0),
            est.box((-1.0, 0.0), (2.0, 5.0)),
            est.annulus((0.0, 0.0), 1.0, 4.0),
        ):
            pts = region.sample(rng.random((est._direction_width(2) + 1, 5000)))
            assert region.contains(pts).all()


def _stream_map(family, n):
    """A map of dimension n whose witness family is ``family`` where one
    exists in that dimension, else the identity (multi-scale pairs)."""
    if n >= 2 and family == "radial":
        return M.radial_extension(M.make_latitude_sphere_map(0.5, dim=n))
    if n >= 2 and family == "spiral":
        return M.spiral_map(M.LogSpiralProfile(1.0, (0, 1), n))
    if n >= 2 and family == "replication":
        return M.disk_replication(M.make_twist_disk_map(dim=n))
    if n >= 2 and family == "translated":
        return M.translated_replication(uniform=M.make_twist_disk_map(dim=n))
    if n == 4 and family == "product":
        return M.product_map(M.identity(1), M.identity(3))
    return M.identity(n)


@st.composite
def _regions(draw, n):
    center = tuple(float(draw(st.integers(-3, 3))) for _ in range(n))
    kind = draw(st.sampled_from(["ball", "box", "annulus"]))
    size = draw(st.floats(0.5, 50.0))
    if kind == "ball":
        return est.ball(center, size)
    if kind == "box":
        widths = [draw(st.floats(0.5, 20.0)) for _ in range(n)]
        return est.box(center, [c + w for c, w in zip(center, widths)])
    return est.annulus(center, draw(st.floats(0.0, 0.9)) * size, size)


class TestPairStreamContract:
    """The pair stream's fixed-block layout: prefixes are bit-identical,
    global and local points lie in the region, directions are unit."""

    @given(data=st.data(), n=st.integers(1, 4),
           family=st.sampled_from(["identity", "radial", "spiral", "replication",
                                   "translated", "product"]),
           mix=st.sampled_from([(0.5, 0.3, 0.2), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0),
                                (0.0, 0.0, 1.0), (0.1, 0.2, 0.7)]),
           seed=st.integers(0, 2 ** 32), short=st.integers(1, 3000),
           extra=st.integers(1, 2000))
    @settings(max_examples=25)
    def test_prefix_and_region(self, data, n, family, mix, seed, short, extra):
        m = _stream_map(family, n)
        region = data.draw(_regions(n))
        n_long = est._CHUNK + extra

        def stream(n_pairs):
            c = est.SamplerConfig(seed=seed, region=region, n_pairs=n_pairs, mix=mix)
            chunks = list(est._pair_chunks(m, c, "stream_contract"))
            return len(chunks), *(np.concatenate(z) for z in zip(*chunks))

        n_chunks, x, y = stream(n_long)
        _, xs, ys = stream(short)
        assert n_chunks == 2 and x.shape == y.shape == (n_long, n)
        assert np.array_equal(x[:short], xs) and np.array_equal(y[:short], ys)

        # the family selector is the first uniform of each pair's row
        width = 1 + 2 * (est._direction_width(n) + 1) + 3
        cat = est._op_rng(seed, "stream_contract").random((n_long, width))[:, 0]
        glob = cat < mix[0]
        local = (cat >= mix[0]) & (cat < mix[0] + mix[1])
        assert region.contains(x[glob]).all() and region.contains(y[glob]).all()
        assert region.contains(x[local]).all()
        h = np.linalg.norm(y[local] - x[local], axis=1) / (1e-3 * region.scale)
        assert np.all((h >= 0.5 * (1 - 1e-9)) & (h <= 1.5 * (1 + 1e-9)))

    @given(n=st.integers(1, 6), count=st.integers(1, 50), data=st.data())
    def test_directions_are_unit(self, n, count, data):
        # Generator.random returns multiples of 2^-53 in [0, 1)
        k = est._direction_width(n)
        ints = data.draw(st.lists(st.integers(0, 2 ** 53 - 1), min_size=k * count,
                                  max_size=k * count))
        u = np.array(ints, dtype=float).reshape(k, count) / 2.0 ** 53
        # Box-Muller gives the zero vector when every radius uniform is 0
        assume(n < 4 or np.all(u[0::2].any(axis=0)))
        d = est._directions(u, n)
        assert d.shape == (count, n)
        assert np.abs(np.linalg.norm(d, axis=1) - 1.0).max() <= 1e-15

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_directions_are_uniform_on_the_sphere(self, n):
        rng = np.random.default_rng(20)
        d = est._directions(rng.random((est._direction_width(n), 100_000)), n)
        assert np.abs(d.mean(axis=0)).max() <= 0.02
        assert np.abs(d.T @ d / d.shape[0] - np.eye(n) / n).max() <= 0.02

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_region_points_are_uniform(self, n):
        # Kolmogorov-Smirnov distances to the uniform law: each box
        # coordinate, and the volume fraction (r / R)^n of ball points
        def ks(v):
            v = np.sort(v)
            grid = np.arange(1, v.size + 1) / v.size
            return max(np.abs(grid - v).max(), np.abs(grid - 1.0 / v.size - v).max())

        rng = np.random.default_rng(21)
        lo, hi = np.arange(n) - 1.0, 2.0 * np.arange(n) + 1.0
        pts = est._region_points(rng, est.box(lo, hi), 100_000)
        for axis in range(n):
            assert ks((pts[:, axis] - lo[axis]) / (hi[axis] - lo[axis])) <= 0.01
        center = np.ones(n)
        pts = est._region_points(rng, est.ball(center, 3.0), 100_000)
        assert ks((np.linalg.norm(pts - center, axis=1) / 3.0) ** n) <= 0.01


class TestBilipLowerBound:
    def test_identity_is_exactly_one(self):
        r = est.bilip_lower_bound(M.identity(2), cfg())
        assert r.lambda_lower == 1.0

    def test_diagonal_affine_approaches_three(self):
        # analytic constant 3 along e1; 1e5 pairs get within 1e-2
        r = est.bilip_lower_bound(M.affine([[3.0, 0.0], [0.0, 1.0]]),
                                  cfg(n_pairs=100_000))
        assert 2.99 <= r.lambda_lower <= 3.0 * (1 + 1e-9)

    def test_monotone_in_pairs(self):
        m = M.affine([[3.0, 0.0], [0.0, 1.0]])
        small = est.bilip_lower_bound(m, cfg(n_pairs=1000))
        large = est.bilip_lower_bound(m, cfg(n_pairs=100_000))
        assert small.lambda_lower <= large.lambda_lower

    def test_bit_identical_reruns(self):
        m = M.disk_replication(M.make_twist_disk_map(dim=2))
        a = est.bilip_lower_bound(m, cfg(radius=300.0, n_pairs=30_000))
        b = est.bilip_lower_bound(m, cfg(radius=300.0, n_pairs=30_000))
        assert a.lambda_lower == b.lambda_lower
        assert np.array_equal(a.worst_pair[0], b.worst_pair[0])
        assert a.n_pairs_used == b.n_pairs_used

    def test_seeds_differ(self):
        m = M.affine([[3.0, 0.0], [0.0, 1.0]])
        a = est.bilip_lower_bound(m, cfg(seed=1, n_pairs=5000))
        b = est.bilip_lower_bound(m, cfg(seed=2, n_pairs=5000))
        assert a.lambda_lower != b.lambda_lower

    def test_degenerate_stream_raises(self):
        # local pairs with a vanishing scale produce only skipped pairs
        c = est.SamplerConfig(
            seed=3, region=est.ball((0.0, 0.0), 1.0), n_pairs=100,
            mix=(0.0, 1.0, 0.0), local_scale=1e-30,
        )
        with pytest.raises(InsufficientSamplesError):
            est.bilip_lower_bound(M.identity(2), c)

    def test_dimension_mismatch(self):
        from bilip.errors import DimensionMismatchError

        with pytest.raises(DimensionMismatchError):
            est.bilip_lower_bound(M.identity(3), cfg(dim=2))


class TestFalsify:
    def test_identity_claim_one_unrefuted(self):
        assert est.falsify_bilip_bound(M.identity(2), 1.0, cfg()) is None

    def test_undersized_claim_refuted_along_axis(self):
        m = M.affine([[3.0, 0.0], [0.0, 1.0]])
        w = est.falsify_bilip_bound(m, 2.0, cfg(n_pairs=50_000))
        assert w is not None
        x, y, ratio = w
        assert max(ratio, 1.0 / ratio) > 2.0 * (1 + 1e-6)

    def test_valid_claim_survives(self):
        m = M.affine([[3.0, 0.0], [0.0, 1.0]])
        assert est.falsify_bilip_bound(m, 3.0, cfg(n_pairs=50_000)) is None

    def test_radial_extension_bound_survives(self):
        phi = M.make_latitude_sphere_map(0.5, dim=2)
        lam_hat = est.sphere_bilip_lower_bound(phi, 7, 50_000).lambda_lower
        f = M.radial_extension(phi)
        w = est.falsify_bilip_bound(f, 1.0 + lam_hat, cfg(radius=100.0,
                                                          n_pairs=200_000))
        assert w is None


class TestSphereLowerBound:
    def test_approaches_true_constant_from_below(self):
        # the latitude map's exact constant is 2; the sampled lower
        # bound must converge to it without ever crossing it
        phi = M.make_latitude_sphere_map(0.5, dim=2)
        values = [
            est.sphere_bilip_lower_bound(phi, seed, 50_000).lambda_lower
            for seed in (1, 2, 3, 4, 5)
        ]
        assert max(values) <= 2.0 + 1e-9
        assert min(values) >= 2.0 - 1e-5


class TestQiEmbeddingCheck:
    def test_identity_passes_trivially(self):
        r = est.qi_embedding_check(M.identity(2), 1.0, 0.0, "euclidean", cfg())
        assert r.passed

    def test_undersized_params_fail_with_witness(self):
        m = M.affine([[3.0, 0.0], [0.0, 1.0]])
        r = est.qi_embedding_check(m, 2.0, 0.0, "euclidean", cfg(n_pairs=50_000))
        assert not r.passed
        assert r.worst_pair is not None

    def test_product_composition_rule(self):
        f = M.affine([[2.0, 0.0], [0.0, 1.0]])
        g = M.affine([[1.0, 0.0], [0.0, 3.0]])
        h = M.product_map(f, g)
        r = est.qi_embedding_check(h, 3.0, 0.0, "l1", cfg(dim=4, n_pairs=50_000))
        assert r.passed

    def test_qi_params_validation(self):
        with pytest.raises(InvalidPointError):
            est.QiParams(0.5, 0.0)
        with pytest.raises(InvalidPointError):
            est.QiParams(1.0, -1.0)
        with pytest.raises(InvalidPointError):
            est.QiParams(1.0, 0.0, metric="manhattan")


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
class TestNonFiniteRatios:
    """A pair whose images are not finite is a violation, never skipped:
    diag(1e307, 1) overflows to inf on most of a ball of radius 100."""

    huge = M.affine([[1e307, 0.0], [0.0, 1.0]])

    def test_lower_bound_is_infinite_with_witness(self):
        e = est.bilip_lower_bound(self.huge, cfg(seed=1, radius=100.0))
        assert e.lambda_lower == np.inf
        x, y, _ = e.worst_pair
        assert not np.isfinite(self.huge(np.stack([x, y]))).all()

    def test_falsify_returns_a_witness(self):
        witness = est.falsify_bilip_bound(self.huge, 2.0, cfg(seed=1, radius=100.0))
        assert witness is not None
        assert not np.isfinite(self.huge(np.stack(witness[:2]))).all()

    def test_qi_check_fails(self):
        r = est.qi_embedding_check(self.huge, 2.0, 0.0, "euclidean",
                                   cfg(seed=1, radius=100.0))
        assert not r.passed
        assert r.worst_margin == -np.inf

    def test_sphere_lower_bound_is_infinite(self):
        class NanOnCap(M.SphereMap):
            dim = 2

            def apply(self, units):
                out = units.copy()
                out[units[:, 0] > 0.99] = np.nan
                return out

        e = est.sphere_bilip_lower_bound(NanOnCap(), 1, 10_000)
        assert e.lambda_lower == np.inf
        assert max(e.worst_pair[0][0], e.worst_pair[1][0]) > 0.99


class TestCDensity:
    def test_identity_covering_radius(self):
        c = est.c_density(M.identity(2), est.ball((0.0, 0.0), 5.0), 0.5)
        assert c <= 0.5 * np.sqrt(2) / 2 + 1e-12

    def test_replication_is_near_surjective(self):
        f = M.disk_replication(M.make_twist_disk_map(dim=2))
        c = est.c_density(f, est.ball((0.0, 0.0), 6.0), 0.5)
        # a bijection of the plane covers up to grid resolution
        assert c <= 3 * (0.5 * np.sqrt(2) / 2)

    def test_product_doubles_covering(self):
        f = M.radial_extension(M.make_latitude_sphere_map(0.5, dim=2))
        g = M.spiral_map(M.LogSpiralProfile(1.0, (0, 1), 2))
        h = M.product_map(f, g)
        step = 1.0
        c_f = est.c_density(f, est.ball((0.0, 0.0), 3.0), step)
        c_g = est.c_density(g, est.ball((0.0, 0.0), 3.0), step)
        c_h = est.c_density(h, est.ball((0.0,) * 4, 3.0), step)
        assert c_h <= 2 * max(c_f, c_g) + step * 2.0

    def test_empty_region(self):
        with pytest.raises(EmptyRegionError):
            est.c_density(M.identity(2), est.ball((0.0, 0.0), 0.1), 5.0)


class TestDriftProfile:
    def test_identity_bounded(self):
        rep = est.drift_profile(M.identity(2), np.ones((5, 2)), 1.0)
        assert rep.verdict == est.VERDICT_BOUNDED
        assert np.all(rep.drifts == 0.0)

    def test_replication_drift_law(self):
        g = M.make_twist_disk_map(dim=2)
        x0 = np.array([0.3125, -0.25])
        wit = est.replication_drift_witnesses(g, x0, 40)
        rep = est.drift_profile(M.disk_replication(g), wit, 1e6)
        base = np.linalg.norm(M.disk_apply(g, x0) - x0)
        expected = base * 2.0 ** np.arange(1, 41)
        assert np.abs(rep.drifts / expected - 1.0).max() <= 1e-12
        assert rep.verdict == est.VERDICT_EXCEEDS

    def test_radial_drift_doubles(self):
        f = M.radial_extension(M.make_latitude_sphere_map(0.5, dim=2))
        x = np.array([0.6, 0.8])
        wit = (2.0 ** np.arange(1, 41))[:, None] * x[None, :]
        rep = est.drift_profile(f, wit, 1e6)
        ratios = rep.drifts[1:] / rep.drifts[:-1]
        assert np.abs(ratios - 2.0).max() <= 1e-9
        assert rep.verdict == est.VERDICT_EXCEEDS


class TestReplicationWitnesses:
    def test_fixed_point_rejected(self):
        g = M.make_twist_disk_map(dim=2)  # fixes the origin
        with pytest.raises(TrivialWitnessError):
            est.replication_drift_witnesses(g, np.zeros(2), 3)

    def test_point_outside_ball_rejected(self):
        g = M.make_twist_disk_map(dim=2)
        with pytest.raises(InvalidPointError):
            est.replication_drift_witnesses(g, np.array([1.5, 0.0]), 3)

    def test_explicit_points(self):
        g = M.make_twist_disk_map(dim=2)
        x0 = np.array([0.25, 0.125])
        wit = est.replication_drift_witnesses(g, x0, 2)
        np.testing.assert_array_equal(wit[0], np.array([4.0, 0.0]) + 2.0 * x0)
        np.testing.assert_array_equal(wit[1], np.array([16.0, 0.0]) + 4.0 * x0)


class TestSpiralWitnesses:
    def test_half_turn_closed_form(self):
        a = rotation_matrix((0, 1), np.pi, 2)
        p = M.ConstantRotationProfile(a)
        wit = est.spiral_drift_witnesses(p, 10)
        rep = est.drift_profile(M.spiral_map(p), wit, 100.0)
        expected = 2.0 * np.sin(np.pi / 2) * 2.0 ** np.arange(1, 11)
        assert np.abs(rep.drifts / expected - 1.0).max() <= 1e-9

    def test_identity_rejected(self):
        p = M.ConstantRotationProfile(np.eye(3))
        with pytest.raises(NoWitnessError):
            est.spiral_drift_witnesses(p, 5)

    def test_cutoff_rejected(self):
        p = M.CutoffRotationProfile(bump_profile(1.0, 1.0, 3.0), (0, 1), 2)
        with pytest.raises(NoWitnessError):
            est.spiral_drift_witnesses(p, 5)

    def test_log_spiral_growing_subsequence(self):
        p = M.LogSpiralProfile(1.0, (0, 1), 2)
        wit = est.spiral_drift_witnesses(p, 40)
        rep = est.drift_profile(M.spiral_map(p), wit, 1e6)
        assert rep.verdict == est.VERDICT_EXCEEDS
        assert np.all(np.diff(rep.drifts) > 0)


class TestGeodesicGraph:
    def test_adjacent_points_edge_is_chord(self):
        cloud = est.circle_cloud(1000)
        d = est.geodesic_estimate(cloud, 0.05, 0, 1)
        chord = np.linalg.norm(cloud[0] - cloud[1])
        assert d == pytest.approx(chord, rel=1e-12)

    def test_circle_antipodal_near_pi(self):
        cloud = est.circle_cloud(10_000)
        d = est.geodesic_estimate(cloud, 0.01, 0, 5000)
        assert abs(d - np.pi) / np.pi <= 0.01

    def test_graph_length_dominates_chord(self):
        cloud = est.circle_cloud(2000)
        g = est.neighbor_graph(cloud, 0.05)
        rng = np.random.default_rng(1)
        for _ in range(50):
            i, j = rng.integers(0, 2000, size=2)
            if i == j:
                continue
            geo = est.geodesic_estimate(cloud, 0.05, int(i), int(j), graph=g)
            assert geo >= np.linalg.norm(cloud[i] - cloud[j]) - 1e-12

    def test_circle_ratio_is_half_pi(self):
        cloud = est.circle_cloud(10_000)
        ratio = est.metric_equivalence_ratio(cloud, 0.01, 10_000, 7)
        assert abs(ratio - np.pi / 2) / (np.pi / 2) <= 0.02

    def test_sphere_ratio_window(self):
        cloud = est.sphere_cloud(10_000)
        ratio = est.metric_equivalence_ratio(cloud, 0.09, 10_000, 7)
        assert 1.45 <= ratio <= 1.58

    def test_ellipse_ratio_stable_across_seeds(self):
        cloud = est.ellipse_cloud(2.0, 1.0, 10_000)
        r1 = est.metric_equivalence_ratio(cloud, 0.02, 400, 11)
        r2 = est.metric_equivalence_ratio(cloud, 0.02, 400, 12)
        assert np.isfinite(r1) and np.isfinite(r2)
        assert abs(r1 - r2) / r1 <= 0.05

    def test_short_arcs_are_flat(self):
        cloud = est.circle_cloud(5000)
        g = est.neighbor_graph(cloud, 0.02)
        for i in range(0, 5000, 500):
            j = (i + 1) % 5000
            geo = est.geodesic_estimate(cloud, 0.02, i, j, graph=g)
            chord = np.linalg.norm(cloud[i] - cloud[j])
            assert geo / chord <= 1.001

    def test_disconnected_cloud_raises(self):
        cloud = est.circle_cloud(100)
        with pytest.raises(DisconnectedCloudError):
            est.neighbor_graph(cloud, 1e-6)
