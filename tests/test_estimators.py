"""Tests for sampled bi-Lipschitz bounds, QI checks, covering radii,
drift witnesses and graph length metrics."""

import hashlib
import json
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bilip import estimators as est
from bilip import maps as M
from bilip.core import rotation_matrix
from bilip.errors import (
    DimensionMismatchError,
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

    def test_empty_regions_rejected(self):
        with pytest.raises(EmptyRegionError):
            est.ball((0.0, 0.0), 0.0)
        with pytest.raises(EmptyRegionError):
            est.box((0.0, 0.0), (0.0, 1.0))
        with pytest.raises(EmptyRegionError):
            est.annulus((0.0, 0.0), 2.0, 1.0)

    @pytest.mark.parametrize("make", [
        lambda: est.ball((0.0, 0.0), np.inf),
        lambda: est.ball((np.nan, 0.0), 1.0),
        lambda: est.ball((0.0, 0.0), 1e308),  # its squared diameter overflows
        lambda: est.box((0.0, 0.0), (np.inf, 1.0)),
        lambda: est.annulus((0.0, 0.0, 0.0), 1e-3, 1e200),
    ])
    def test_non_finite_regions_rejected(self, make):
        with pytest.raises(InvalidPointError):
            make()

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_ball_is_the_annulus_of_inner_radius_zero(self, n):
        center, radius = tuple(float(c) for c in range(n)), 3.7
        r = est.ball(center, radius)
        assert isinstance(r, est.AnnulusRegion) and r.inner == 0.0 and r.outer == radius
        u = np.random.default_rng(n).random((est._direction_width(n) + 1, 1000))
        # the radius law of the former ball class, bit for bit
        old = np.asarray(center) + (radius * u[-1] ** (1.0 / n))[:, None] * est._directions(u, n)
        assert np.array_equal(r.sample(u), old)

    def test_wide_annulus_samples_without_overflow(self):
        r = est.annulus((0.0,) * 3, 1e-3, 1e150)  # outer ** 3 overflows
        pts = r.sample(np.random.default_rng(0).random((3, 1000)))
        assert np.isfinite(pts).all() and r.contains(pts).all()

    def test_radius_range(self):
        assert est.radius_range(est.annulus((0.0, 0.0), 1e-3, 1e4)) == (1e-3, 1e4)
        assert est.radius_range(est.ball((0.0, 0.0), 100.0)) == (0.1, 100.0)
        assert est.radius_range(est.box((0.0, 0.0), (2.0, 4.0))) == (2e-3, 2.0)
        assert est.radius_range(est.annulus((0.0, 0.0), 1e-9, 1.0)) == (1e-6, 1.0)

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
    across the hand-offs between chunks too, global and local points lie
    in the region, directions are unit."""

    @given(data=st.data(), n=st.integers(1, 4),
           family=st.sampled_from(["identity", "radial", "spiral", "replication",
                                   "translated", "product"]),
           seed=st.integers(0, 2 ** 32), short=st.integers(1, est._CHUNK + 3000),
           extra=st.integers(1, 2000))
    @settings(max_examples=25)
    def test_prefix_and_region(self, data, n, family, seed, short, extra):
        m = _stream_map(family, n)
        region = data.draw(_regions(n))
        n_long = 2 * est._CHUNK + extra

        def stream(n_pairs):
            c = est.SamplerConfig(seed=seed, region=region, n_pairs=n_pairs)
            chunks = list(est._pair_chunks(m, c, "stream_contract"))
            return len(chunks), *(np.concatenate(z) for z in zip(*chunks))

        n_chunks, x, y = stream(n_long)
        _, xs, ys = stream(short)
        assert n_chunks == 3 and x.shape == y.shape == (n_long, n)
        assert np.array_equal(x[:short], xs) and np.array_equal(y[:short], ys)

        # the family selector is the first uniform of each pair's row
        width = 1 + 2 * (est._direction_width(n) + 1) + 3
        cat = est._op_rng(seed, "stream_contract").random((n_long, width))[:, 0]
        mix = est._MIX
        glob = cat < mix[0]
        local = (cat >= mix[0]) & (cat < mix[0] + mix[1])
        assert region.contains(x[glob]).all() and region.contains(y[glob]).all()
        assert region.contains(x[local]).all()
        wit = cat >= mix[0] + mix[1]
        assert region.contains(x[wit]).all() and region.contains(y[wit]).all()
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


class _Broken(Exception):
    pass


def _record_thread(monkeypatch, owner, name, threads):
    """Patch ``owner.name`` (a function, a method or a static method) to
    add the id of each calling thread to ``threads``."""
    fn = vars(owner)[name]
    static = isinstance(fn, staticmethod)
    call = fn.__func__ if static else fn

    def recorded(*args, **kwargs):
        threads.add(threading.get_ident())
        return call(*args, **kwargs)

    monkeypatch.setattr(owner, name, staticmethod(recorded) if static else recorded)


def _classes(base):
    classes = [base]
    for cls in classes:
        classes.extend(c for c in cls.__subclasses__() if c not in classes)
    return classes


class TestReadAhead:
    """The chunked samplers draw one chunk ahead on one worker thread:
    the worker only draws uniforms and rows and touches no node, the
    caller's errors and the worker's both come out of ``next()``, and the
    worker ends with its stream."""

    N_PAIRS = 2 * est._CHUNK + 100  # three chunks, two hand-offs

    @pytest.mark.parametrize("run", [
        lambda m, c: est.bilip_lower_bound(m, c),
        lambda m, c: est.qi_embedding_check(m, 4.0, 0.0, c),
        lambda m, c: est.sphere_bilip_lower_bound(M.make_latitude_sphere_map(0.5, dim=2),
                                                  c.seed, c.n_pairs),
    ], ids=["bilip", "qi", "sphere"])
    def test_nodes_run_on_the_callers_thread(self, monkeypatch, run):
        # the witness rows read the replication's disks on the caller
        nodes, draws = set(), set()
        for base, names in ((M.MapExpr, ("_eval", "_eval_inverse", "_displacement",
                                         "disk_points", "disk_count")),
                            (M.SphereMap, ("apply",)), (M.DiskMap, ("apply",))):
            for cls in _classes(base):
                for name in names:
                    if name in vars(cls):
                        _record_thread(monkeypatch, cls, name, nodes)
        for name in ("_two_point_stats", "_witness_pairs"):
            _record_thread(monkeypatch, est, name, nodes)
        _record_thread(monkeypatch, est, "_uniform_block", draws)
        m = M.disk_replication(M.make_twist_disk_map(dim=2))
        run(m, cfg(radius=300.0, n_pairs=self.N_PAIRS))
        assert nodes == {threading.get_ident()}
        assert draws and threading.get_ident() not in draws

    def test_the_worker_ends_with_its_stream(self, monkeypatch):
        m, c = M.identity(2), cfg(n_pairs=self.N_PAIRS)
        base = threading.active_count()
        assert len(list(est._pair_chunks(m, c, "read_ahead"))) == 3
        assert threading.active_count() == base

        chunks = est._pair_chunks(m, c, "read_ahead")
        next(chunks)
        assert threading.active_count() == base + 1
        chunks.close()
        assert threading.active_count() == base

        def broken(*args):
            raise _Broken

        monkeypatch.setattr(est, "_two_point_stats", broken)
        with pytest.raises(_Broken):
            est.bilip_lower_bound(m, c)
        assert threading.active_count() == base

    def raise_on_second_chunk(self, monkeypatch, name):
        """Make ``est.name`` raise on its second call, then ask the stream
        for two chunks: the error comes out of the second ``next()``,
        while the worker is drawing the third chunk, and it ends."""
        calls = []
        fn = getattr(est, name)

        def second_raises(*args):
            calls.append(args)
            if len(calls) == 2:
                raise _Broken(f"{name} on the second chunk")
            return fn(*args)

        monkeypatch.setattr(est, name, second_raises)
        base = threading.active_count()
        chunks = est._pair_chunks(M.identity(2), cfg(n_pairs=self.N_PAIRS), "read_ahead")
        next(chunks)
        with pytest.raises(_Broken):
            next(chunks)
        assert threading.active_count() == base

    def test_a_draw_error_comes_out_of_next(self, monkeypatch):
        # the witness rows of a chunk are drawn on the caller, after the
        # worker hands the chunk over
        self.raise_on_second_chunk(monkeypatch, "_witness_pairs")

    def test_a_worker_error_comes_out_of_next(self, monkeypatch):
        self.raise_on_second_chunk(monkeypatch, "_uniform_block")

    def test_dimension_mismatch_on_first_next(self):
        chunks = est._pair_chunks(M.identity(3), cfg(dim=2), "read_ahead")
        with pytest.raises(DimensionMismatchError):
            next(chunks)


class TestWitnessRows:
    """Each construction's witness rule, and the region rule that keeps
    every witness pair in the region."""

    @pytest.mark.parametrize("n", [2, 3])
    def test_radial_rows_share_a_sphere(self, n):
        m = M.radial_extension(M.make_latitude_sphere_map(0.6, dim=n))
        region = est.annulus((0.0,) * n, 1e-3, 1e4)
        k = est._direction_width(n) + 1
        u = np.random.default_rng(n).random((2 * k + 2, 5000))
        x, y = est._witness_pairs(m, region, u[:k], u[k : 2 * k], u[-2], u[-1])
        rx, ry = np.linalg.norm(x, axis=1), np.linalg.norm(y, axis=1)
        assert np.all(np.abs(ry - rx) <= 1e-12 * rx)
        assert np.all(np.linalg.norm(x - y, axis=1) >= 4e-4 * rx)  # tight, not degenerate

    @pytest.mark.parametrize("m, region, top", [
        # the identity for r >= 3: the twist on 1 < r < 3 is outside the box
        (M.spiral_map(M.CutoffRotationProfile(bump_profile(1.0, 1.0, 3.0), (0, 1), 2)),
         est.box((10.0, 10.0), (20.0, 20.0)), 1.0),
        # a unit ball 1000 out sees a sliver of the sphere map: about 1.0006
        (M.radial_extension(M.make_latitude_sphere_map(0.6, dim=2)),
         est.ball((1000.0, 0.0), 1.0), 1.001),
        # a ball that holds no disk: the map is the identity there
        (M.disk_replication(M.make_twist_disk_map(dim=2, amplitude=0.7)),
         est.ball((-500.0, 0.0), 100.0), 1.0),
    ])
    def test_off_origin_regions_read_their_own_distortion(self, m, region, top):
        r = est.bilip_lower_bound(m, est.SamplerConfig(1, region, 100_000))
        assert r.n_pairs_used == 100_000 and 1.0 <= r.lambda_lower <= top
        assert region.contains(np.array([r.worst_pair[0], r.worst_pair[1]])).all()


class TestPairFamilies:
    """The equal-radius and cross-disk families against the expressions
    the verify scenarios inlined before they moved here: the streams,
    and so the reports, stay the same bit for bit."""

    @pytest.mark.parametrize("n", [2, 3])
    def test_equal_radius_pairs(self, n):
        seed, scale, lo = 11, 300.0, 1e-3
        # radial-bound: unit pairs, radii log-uniform in [0.1, 10 scale]
        du, dv, w_radius, w_h = est._direction_pairs(
            est._op_rng(seed, "verify_radial_equal_radius"), n, 5000)
        radii = np.exp(np.log(0.1) + w_radius * np.log(10.0 * scale))
        xu, yu = est._tangential_pairs(du, dv, 1.0, 10.0 ** (-3.0 * w_h))
        got = est.equal_radius_pairs(seed, "verify_radial_equal_radius", n, 5000,
                                     np.log(0.1), np.log(10.0 * scale))
        for a, b in zip(got, (radii[:, None] * xu, radii[:, None] * yu, xu, yu)):
            assert np.array_equal(a, b)
        # spiral-bound: the pairs at radii log-uniform in [lo, scale]
        du, dv, w_radius, w_h = est._direction_pairs(
            est._op_rng(seed, "verify_spiral_equal_radius"), n, 5000)
        radii = np.exp(np.log(lo) + w_radius * (np.log(scale) - np.log(lo)))
        x, y = est._tangential_pairs(du, dv, radii, 10.0 ** (-3.0 * w_h))
        got = est.equal_radius_pairs(seed, "verify_spiral_equal_radius", n, 5000,
                                     np.log(lo), np.log(scale) - np.log(lo))
        assert np.array_equal(got[0], x) and np.array_equal(got[1], y)

    @pytest.mark.parametrize("n", [2, 3])
    def test_cross_disk_pairs(self, n):
        seed, n_disks, count = 11, 5, 5000
        m = M.disk_replication(M.make_twist_disk_map(dim=n))
        rng = est._op_rng(seed, "verify_replication_cross_disk")
        k = est._direction_width(n) + 1
        u = est._uniform_block(rng, count, 2 * k + 2)
        unit_ball = est.ball((0.0,) * n, 1.0)
        i = np.floor(u[-2] * n_disks).astype(int)
        j = np.floor(u[-1] * (n_disks - 1)).astype(int)
        j = np.where(j >= i, j + 1, j)
        x, y = est.cross_disk_pairs(seed, "verify_replication_cross_disk", m, n_disks, count)
        assert np.array_equal(x, m.disk_points(i, unit_ball.sample(u[:k])))
        assert np.array_equal(y, m.disk_points(j, unit_ball.sample(u[k : 2 * k])))

    @pytest.mark.parametrize("n_disks", [0, 1])
    def test_cross_disk_pairs_need_two_disks(self, n_disks):
        m = M.disk_replication(M.make_twist_disk_map(dim=2))
        with pytest.raises(InvalidPointError, match="two disks"):
            est.cross_disk_pairs(11, "verify_replication_cross_disk", m, n_disks, 100)

    def test_distortion(self):
        x = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0], [5.0, 5.0]])
        y = np.array([[1.0, 0.0], [1.0, 0.5e-12], [0.0, 0.0], [5.0, 6.0]])
        worst, ratios = est.distortion(lambda p: 2.0 * p, x, y)
        assert worst == 2.0 and ratios.tolist() == [2.0, 2.0, 2.0]  # the 5e-13 pair is dropped
        worst, _ = est.distortion(lambda p: np.where(p > 4.0, np.nan, p), x, y)
        assert worst == np.inf  # a NaN image counts as +inf
        assert est.distortion(np.negative, x[1:2], y[1:2]) == (-np.inf, None)

    def test_distortion_of_the_identity_reads_one_and_keeps_its_pairs(self):
        # the identity hands x and y themselves back as its images
        rng = np.random.default_rng(8)
        x = rng.normal(size=(1000, 3))
        y = x + rng.normal(scale=1e-3, size=x.shape)
        y[::10] = x[::10]  # dropped pairs: the kept rows are copies
        for xs, ys in ((x[1::10], y[1::10]), (x, y)):
            before = xs.copy(), ys.copy()
            worst, ratios = est.distortion(lambda p: p, xs, ys)
            assert worst == 1.0 and np.all(ratios == 1.0)
            assert np.array_equal(xs, before[0]) and np.array_equal(ys, before[1])


class TestPinnedStream:
    """The sampled pair families keep their bits.

    ``tests/data/pair_stream_digests.jsonl`` holds one line per case: the
    sha256 of the C-ordered bytes of each output, over 2 _CHUNK + 100
    pairs (three chunks of a stream), written by the commit before the
    column-major pair chunks. The stream cases cover every witness rule
    and both region kinds in n = 1 to 5; the others are the sphere-pair
    draw, the equal-radius pairs and the cross-disk pairs.
    """

    N_PAIRS = 2 * est._CHUNK + 100
    STREAMS = (
        ("identity,box,n=1", lambda: M.identity(1), est.box((-2.0,), (3.0,))),
        ("twist-replication,ball,n=2",
         lambda: M.disk_replication(M.make_twist_disk_map(dim=2, amplitude=0.7)),
         est.ball((0.0, 0.0), 300.0)),
        ("radial,ball,n=3",
         lambda: M.radial_extension(M.make_latitude_sphere_map(0.6, dim=3)),
         est.ball((0.0,) * 3, 100.0)),
        ("product,box,n=4",
         lambda: M.product_map(M.radial_extension(M.make_latitude_sphere_map(0.5, dim=2)),
                               M.spiral_map(M.LogSpiralProfile(1.0, (0, 1), 2))),
         est.box((-3.0, -2.0, -1.0, 0.5), (1.0, 2.0, 4.0, 6.0))),
        ("affine,ball,n=5",
         lambda: M.affine(np.eye(5) + 0.1 * np.arange(25.0).reshape(5, 5) / 25.0,
                          np.arange(5.0)),
         est.ball((1.0, 0.0, -1.0, 0.0, 2.0), 7.0)),
        ("log-spiral,annulus,n=2", lambda: M.spiral_map(M.LogSpiralProfile(1.0, (0, 1), 2)),
         est.annulus((0.0, 0.0), 1e-3, 1e4)),
    )

    @staticmethod
    def line(case, outputs):
        """The JSON line of ``case``: the row count of the first output and
        the sha256 of each output's C-ordered bytes; an output is an
        array or a sequence of row chunks."""
        digests, rows = [], None
        for out in outputs:
            parts = [out] if isinstance(out, np.ndarray) else list(out)
            h = hashlib.sha256()
            for part in parts:
                h.update(part.tobytes())  # C order whatever the layout
            digests.append(h.hexdigest())
            rows = rows if rows is not None else sum(len(p) for p in parts)
        return json.dumps({"case": case, "rows": rows, "sha256": digests}, sort_keys=True)

    def stream_lines(self):
        for case, build, region in self.STREAMS:
            c = est.SamplerConfig(seed=5, region=region, n_pairs=self.N_PAIRS)
            chunks = list(est._pair_chunks(build(), c, "pinned_stream"))
            yield self.line(case, ([x for x, _ in chunks], [y for _, y in chunks]))

    def sphere_line(self, monkeypatch):
        # the chunks the sphere bound would reduce, collected instead
        monkeypatch.setattr(est, "_lower_bound", lambda f, pairs, seed: list(pairs))
        chunks = est.sphere_bilip_lower_bound(M.make_latitude_sphere_map(0.5, dim=3), 5,
                                              self.N_PAIRS)
        return self.line("sphere-pairs,n=3", ([x for x, _ in chunks], [y for _, y in chunks]))

    def family_lines(self):
        for n in (2, 3):
            yield self.line(f"equal-radius,n={n}", est.equal_radius_pairs(
                5, "pinned_equal_radius", n, self.N_PAIRS, np.log(0.1), np.log(3000.0)))
        for n, n_disks in ((2, 5), (3, 2)):
            m = M.disk_replication(M.make_twist_disk_map(dim=n))
            yield self.line(f"cross-disk,n={n},disks={n_disks}", est.cross_disk_pairs(
                5, "pinned_cross_disk", m, n_disks, self.N_PAIRS))

    def test_digests_match_pinned_lines(self, monkeypatch):
        path = Path(__file__).parent / "data" / "pair_stream_digests.jsonl"
        lines = [*self.stream_lines(), *self.family_lines(), self.sphere_line(monkeypatch)]
        assert lines == path.read_text().splitlines()


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
        # every pair of a ball of radius 1e-20 is closer than 1e-12, so
        # every pair is skipped
        c = est.SamplerConfig(seed=3, region=est.ball((0.0, 0.0), 1e-20), n_pairs=100)
        with pytest.raises(InsufficientSamplesError):
            est.bilip_lower_bound(M.identity(2), c)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            est.bilip_lower_bound(M.identity(3), cfg(dim=2))


class TestChunkPeak:
    """The temporaries of one chunk stay few: their peak, not a time, is
    pinned, since glibc returns a freed block of a few MB to the system
    and the next chunk faults its pages in again."""

    def test_radial_two_point_stats_peak(self):
        m = M.radial_extension(M.make_latitude_sphere_map(0.45, dim=3))
        rng = np.random.default_rng(9)
        x = rng.uniform(-100.0, 100.0, size=(est._CHUNK, 3))
        y = x + rng.normal(scale=1e-3, size=x.shape)
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            est._two_point_stats(m._eval, x, y)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        # 5.5 as written; with whole-row broadcasts and a fresh array at
        # every step the peak read 9.8
        assert peak <= 6.0 * x.nbytes


class TestFalsify:
    """A claim is judged by ``refutes`` on the bound's own stream, and the
    bound's ``worst_pair`` is the witness."""

    def test_identity_claim_one_unrefuted(self):
        assert not est.refutes(est.bilip_lower_bound(M.identity(2), cfg()).lambda_lower, 1.0)

    def test_undersized_claim_refuted_along_axis(self):
        m = M.affine([[3.0, 0.0], [0.0, 1.0]])
        e = est.bilip_lower_bound(m, cfg(n_pairs=50_000))
        assert est.refutes(e.lambda_lower, 2.0)
        x, y, ratio = e.worst_pair
        assert max(ratio, 1.0 / ratio) > 2.0 * (1 + 1e-6)

    def test_valid_claim_survives(self):
        m = M.affine([[3.0, 0.0], [0.0, 1.0]])
        assert not est.refutes(est.bilip_lower_bound(m, cfg(n_pairs=50_000)).lambda_lower, 3.0)

    @pytest.mark.parametrize("claim", [0.5, np.inf, np.nan])
    def test_claim_that_is_not_a_constant_is_refused(self, claim):
        with pytest.raises(InvalidPointError):
            est.check_claim(claim)

    def test_radial_extension_bound_survives(self):
        phi = M.make_latitude_sphere_map(0.5, dim=2)
        lam_hat = est.sphere_bilip_lower_bound(phi, 7, 50_000).lambda_lower
        f = M.radial_extension(phi)
        e = est.bilip_lower_bound(f, cfg(radius=100.0, n_pairs=200_000))
        assert not est.refutes(e.lambda_lower, 1.0 + lam_hat)


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
        r = est.qi_embedding_check(M.identity(2), 1.0, 0.0, cfg())
        assert r.passed

    def test_undersized_params_fail_with_witness(self):
        m = M.affine([[3.0, 0.0], [0.0, 1.0]])
        r = est.qi_embedding_check(m, 2.0, 0.0, cfg(n_pairs=50_000))
        assert not r.passed
        assert r.worst_pair is not None

    def test_product_composition_rule(self):
        f = M.affine([[2.0, 0.0], [0.0, 1.0]])
        g = M.affine([[1.0, 0.0], [0.0, 3.0]])
        h = M.product_map(f, g)
        r = est.qi_embedding_check(h, 3.0, 0.0, cfg(dim=4, n_pairs=50_000))
        assert r.passed

    def test_additive_eps_absorbs_the_stretch_of_short_pairs(self):
        # 2x moves a pair at distance d <= 2 by 2d <= 1.5 d + 1, so
        # (1.5, 1) holds on the unit ball while (1.5, 0) does not
        m, c = M.affine([[2.0, 0.0], [0.0, 2.0]]), cfg(radius=1.0, n_pairs=20_000)
        r = est.qi_embedding_check(m, 1.5, 1.0, c)
        assert r.passed and 1.0 <= r.lambda_lower <= 1.5
        r = est.qi_embedding_check(m, 1.5, 0.0, c)
        assert not r.passed
        assert r.lambda_lower == pytest.approx(2.0, rel=1e-12)

    @pytest.mark.parametrize("lam, eps, metric", [
        (0.5, 0.0, "euclidean"), (1.0, -1.0, "l1"),
        (np.inf, 0.0, "euclidean"), (np.nan, 0.0, "euclidean"),
        (1.0, np.inf, "euclidean"), (1.0, np.nan, "l1")])
    def test_check_refuses_what_qi_params_refuse(self, lam, eps, metric):
        # the check measures a map that is not a product in the Euclidean
        # metric and a product in the sum of its factors' metrics (l1)
        m = (M.identity(2) if metric == "euclidean"
             else M.product_map(M.identity(1), M.identity(1)))
        with pytest.raises(InvalidPointError):
            est.qi_embedding_check(m, lam, eps, cfg())


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
        e = est.bilip_lower_bound(self.huge, cfg(seed=1, radius=100.0))
        assert est.refutes(e.lambda_lower, 2.0)
        assert not np.isfinite(self.huge(np.stack(e.worst_pair[:2]))).all()

    def test_qi_check_fails(self):
        r = est.qi_embedding_check(self.huge, 2.0, 0.0, cfg(seed=1, radius=100.0))
        assert not r.passed
        assert r.lambda_lower == np.inf

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

    @pytest.mark.parametrize("drifts, verdict", [
        ([0.0] * 30, est.VERDICT_BOUNDED),
        # growth is judged against the first nonzero drift, at any scale
        ([0.0, 0.0] + [1e-20 * 2.0 ** k for k in range(28)], est.VERDICT_EXCEEDS),
        ([1e300 * 2.0 ** -k for k in range(30)][::-1], est.VERDICT_EXCEEDS),
        # a 2^19-fold rise is not 1e6-fold, and a flat tail is not growth
        ([2.0 ** k for k in range(20)], est.VERDICT_BOUNDED),
        ([2.0 ** k for k in range(30)] + [2.0 ** 29], est.VERDICT_BOUNDED),
        ([np.nan] + [2.0 ** k for k in range(30)], est.VERDICT_BOUNDED),
    ])
    def test_relative_drift_class(self, drifts, verdict):
        rep = est.DriftReport(np.zeros((len(drifts), 2)), np.array(drifts), None)
        assert rep.verdict == verdict

    def test_absolute_threshold_is_kept(self):
        # a user threshold replaces the relative one: 2^29 < 1e9
        drifts = np.array([2.0 ** k for k in range(30)])
        assert est.DriftReport(drifts[:, None], drifts, 1e9).verdict == est.VERDICT_BOUNDED
        assert est.DriftReport(drifts[:, None], drifts, 1e8).verdict == est.VERDICT_EXCEEDS

    def test_max_relative_error(self):
        expected = np.array([1.0, 1e-10, 1e10])
        observed = expected * np.array([1.0, 1.0 + 1e-6, 1.0 - 1e-9])
        assert est.max_relative_error(observed, expected) == pytest.approx(1e-6, rel=1e-6)


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

    def test_graph_metrics_call_dijkstra_through_the_module_global(self, monkeypatch):
        # a wrapper set on estimators.dijkstra must see every graph search
        real = est.dijkstra
        sources = []

        def counting(*args, **kwargs):
            out = real(*args, **kwargs)
            sources.append(out.shape[0])
            return out

        monkeypatch.setattr(est, "dijkstra", counting)
        cloud = est.circle_cloud(2000)
        assert est.metric_equivalence_ratio(cloud, 0.05, 400, 11) == 1.5690831108346024
        assert est.geodesic_estimate(cloud, 0.05, 0, 1000) == 3.141303592660183
        assert sources == [20, 1]  # ceil(sqrt(400)) sources, then one

    def test_disconnected_cloud_raises(self):
        cloud = est.circle_cloud(100)
        with pytest.raises(DisconnectedCloudError):
            est.neighbor_graph(cloud, 1e-6)

    @pytest.mark.parametrize("eps", [-1.0, 0.0, np.nan, np.inf])
    def test_eps_not_finite_and_positive_is_refused(self, eps):
        # a k-d tree reads a negative radius as no bound: every pair an edge
        cloud = est.circle_cloud(200)
        with pytest.raises(InvalidPointError):
            est.neighbor_graph(cloud, eps)
        with pytest.raises(InvalidPointError):
            est.metric_equivalence_ratio(cloud, eps, 10, 7)

    @pytest.mark.parametrize("n_pairs", [0, -5])
    def test_pair_count_below_one_is_refused(self, n_pairs):
        with pytest.raises(InvalidPointError):
            est.metric_equivalence_ratio(est.circle_cloud(200), 0.1, n_pairs, 7)
