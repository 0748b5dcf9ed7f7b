"""Tests for Kuhn triangulations and piecewise-linear homeomorphisms."""

import hashlib
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from bilip import pl
from bilip.errors import (
    DegenerateSimplexError,
    DisplacementTooLargeError,
    EmptyGridError,
    NotHomeomorphismError,
    OutOfDomainError,
    SupportViolationError,
)
from bilip.mapformat import load_map, save_map


def brute_force_eval(f, x):
    """Oracle: search every simplex for one containing x and
    interpolate there; returns all values found (they must agree)."""
    tri = f.triangulation
    values = []
    for s in range(tri.n_simplices):
        verts = tri.vertices[tri.simplices[s]]
        e = (verts[1:] - verts[0]).T
        try:
            w_rest = np.linalg.solve(e, x - verts[0])
        except np.linalg.LinAlgError:
            continue
        w0 = 1.0 - w_rest.sum()
        if w0 >= -1e-10 and np.all(w_rest >= -1e-10):
            w = np.concatenate([[w0], w_rest])
            values.append(w @ f.vertex_images[tri.simplices[s]])
    return values


class TestKuhnTriangulation:
    def test_square_splits_in_two(self):
        tri = pl.kuhn_triangulation(2, (0.0, 1.0), 1)
        assert tri.n_vertices == 4
        assert tri.n_simplices == 2

    def test_cube_splits_in_factorial(self):
        # n! simplices per cube
        for n in (1, 2, 3, 4):
            tri = pl.kuhn_triangulation(n, (0.0, 1.0), 1)
            assert tri.n_simplices == math.factorial(n)

    def test_vertex_count_is_lattice_count(self):
        for n, res in ((2, 5), (3, 3)):
            tri = pl.kuhn_triangulation(n, (-1.0, 1.0), res)
            assert tri.n_vertices == (res + 1) ** n

    def test_zero_resolution_rejected(self):
        with pytest.raises(EmptyGridError):
            pl.kuhn_triangulation(2, (0.0, 1.0), 0)

    def test_simplices_tile_box(self):
        # total simplex volume equals the box volume (det oracle)
        for n, res in ((2, 4), (3, 2)):
            tri = pl.kuhn_triangulation(n, (-1.0, 1.0), res)
            verts = tri.vertices[tri.simplices]
            edges = verts[:, 1:, :] - verts[:, :1, :]
            vols = np.abs(np.linalg.det(edges)) / math.factorial(n)
            assert vols.sum() == pytest.approx(2.0 ** n, rel=1e-9)
            assert np.all(vols > 0)

    def test_simplex_volume_helper(self):
        tri = pl.kuhn_triangulation(3, (0.0, 2.0), 4)
        assert tri.simplex_volume() == pytest.approx(0.5 ** 3 / 6.0)


class TestPLEval:
    def test_identity_map(self):
        tri = pl.kuhn_triangulation(2, (-1.0, 1.0), 4)
        f = pl.identity_plmap(tri)
        rng = np.random.default_rng(0)
        pts = rng.uniform(-1, 1, size=(2000, 2))
        np.testing.assert_allclose(pl.pl_eval(f, pts), pts, atol=1e-12)

    def test_vertex_maps_to_stored_image(self):
        f = pl.pl_twist_example(2, 4, 0.3)
        tri = f.triangulation
        out = pl.pl_eval(f, tri.vertices)
        np.testing.assert_allclose(out, f.vertex_images, atol=1e-12)

    def test_edge_midpoint_interpolates(self):
        f = pl.pl_twist_example(2, 4, 0.3)
        tri = f.triangulation
        # midpoint of the first simplex's first edge
        s = tri.simplices[10]
        a, b = tri.vertices[s[0]], tri.vertices[s[1]]
        mid = 0.5 * (a + b)
        expect = 0.5 * (f.vertex_images[s[0]] + f.vertex_images[s[1]])
        np.testing.assert_allclose(pl.pl_eval(f, mid), [expect], atol=1e-12)

    def test_matches_brute_force_oracle(self):
        f = pl.pl_twist_example(2, 4, 0.35)
        rng = np.random.default_rng(1)
        pts = rng.uniform(-1, 1, size=(200, 2))
        got = pl.pl_eval(f, pts)
        for p, g in zip(pts, got):
            vals = brute_force_eval(f, p)
            assert vals, f"no simplex contains {p}"
            for v in vals:
                np.testing.assert_allclose(g, v, atol=1e-10)

    def test_continuity_on_shared_faces(self):
        # points on faces are found by several simplices; the brute
        # force values must agree with each other and with pl_eval
        f = pl.pl_twist_example(2, 4, 0.3)
        tri = f.triangulation
        rng = np.random.default_rng(2)
        count = 0
        for _ in range(1000):
            s = tri.simplices[rng.integers(0, tri.n_simplices)]
            i, j = rng.choice(len(s), size=2, replace=False)
            t = rng.uniform()
            p = (1 - t) * tri.vertices[s[i]] + t * tri.vertices[s[j]]
            vals = brute_force_eval(f, p)
            if len(vals) < 2:
                continue
            count += 1
            base = pl.pl_eval(f, p)[0]
            for v in vals:
                np.testing.assert_allclose(base, v, atol=1e-12)
        assert count > 100  # plenty of genuinely shared face points

    def test_outside_box_identity_when_boundary_fixed(self):
        f = pl.pl_twist_example(2, 4, 0.3)
        pts = np.array([[2.0, 0.0], [-3.0, 5.0]])
        assert np.array_equal(pl.pl_eval(f, pts), pts)

    def test_outside_box_error_without_boundary_fixed(self):
        tri = pl.kuhn_triangulation(2, (-1.0, 1.0), 2)
        f = pl.PLMap(tri, tri.vertices * 2.0, boundary_fixed=False)
        with pytest.raises(OutOfDomainError):
            pl.pl_eval(f, [[2.0, 0.0]])


class TestDifferentialNorm:
    def test_identity_is_one(self):
        tri = pl.kuhn_triangulation(2, (-1.0, 1.0), 3)
        f = pl.identity_plmap(tri)
        assert pl.pl_differential_norm(f) == pytest.approx(1.0, abs=1e-10)

    def test_global_scaling(self):
        tri = pl.kuhn_triangulation(2, (-1.0, 1.0), 3)
        f = pl.PLMap(tri, tri.vertices * 2.0, boundary_fixed=False)
        assert pl.pl_differential_norm(f) == pytest.approx(2.0, abs=1e-10)

    def test_linear_map_realized_on_vertices(self):
        a = np.array([[3.0, 0.0], [0.0, 1.0]])
        tri = pl.kuhn_triangulation(2, (-1.0, 1.0), 4)
        f = pl.PLMap(tri, tri.vertices @ a.T, boundary_fixed=False)
        assert pl.pl_differential_norm(f) == pytest.approx(3.0, abs=1e-10)
        assert pl.pl_bilip_constant(f) == pytest.approx(3.0, abs=1e-10)

    def test_interior_displacement_vs_difference_quotients(self):
        # exact norm against a dense two-point difference-quotient sup
        rng = np.random.default_rng(3)
        tri = pl.kuhn_triangulation(2, (-1.0, 1.0), 8)
        images = tri.vertices.copy()
        interior = ~tri.boundary_vertex_mask()
        idx = np.flatnonzero(interior)[rng.integers(0, interior.sum())]
        images[idx] += rng.uniform(-0.1, 0.1, size=2)
        f = pl.PLMap(tri, images)
        exact = pl.pl_differential_norm(f)

        x = rng.uniform(-1, 1, size=(100_000, 2))
        d = rng.normal(size=(100_000, 2))
        d /= np.linalg.norm(d, axis=1)[:, None]
        h = 1e-6
        y = x + h * d
        fx = pl.pl_eval(f, x)
        fy = pl.pl_eval(f, y)
        sampled = (np.linalg.norm(fy - fx, axis=1) / h).max()
        assert sampled <= exact * (1 + 1e-6)
        assert sampled >= exact * 0.99

    def test_argmax_simplex_reported(self):
        f = pl.pl_twist_example(2, 6, 0.3)
        norm, arg = pl.pl_differential_norm(f, with_argmax=True)
        diffs = f.differentials()
        from bilip.core import operator_norm

        assert operator_norm(diffs[arg]) == pytest.approx(norm, rel=1e-9)

    def test_degenerate_simplex_rejected(self):
        tri = pl.kuhn_triangulation(2, (0.0, 1.0), 1)
        images = tri.vertices.copy()
        images[:] = images[0]  # collapse everything
        f = pl.PLMap(tri, images, boundary_fixed=False)
        with pytest.raises(DegenerateSimplexError):
            pl.pl_differential_norm(f)


class TestBilipConstant:
    def test_identity(self):
        tri = pl.kuhn_triangulation(2, (-1.0, 1.0), 2)
        assert pl.pl_bilip_constant(pl.identity_plmap(tri)) == pytest.approx(
            1.0, abs=1e-10
        )

    def test_certificate_never_beaten_by_samples(self):
        f = pl.pl_twist_example(2, 8, 0.4)
        lam = pl.pl_bilip_constant(f)
        rng = np.random.default_rng(4)
        x = rng.uniform(-1, 1, size=(100_000, 2))
        y = x + rng.normal(size=(100_000, 2)) * 1e-3
        y = np.clip(y, -1.0, 1.0)
        d = np.linalg.norm(x - y, axis=1)
        keep = d > 1e-12
        fx, fy = pl.pl_eval(f, x[keep]), pl.pl_eval(f, y[keep])
        df = np.linalg.norm(fx - fy, axis=1)
        ratios = np.maximum(df / d[keep], d[keep] / df)
        assert ratios.max() <= lam * (1 + 1e-6)

    def test_orientation_flip_rejected(self):
        tri = pl.kuhn_triangulation(2, (-1.0, 1.0), 2)
        images = tri.vertices.copy()
        center = np.all(tri.vertices == 0.0, axis=1)
        images[center] = [1.5, 0.5]  # push the center through its star
        f = pl.PLMap(tri, images)
        with pytest.raises(NotHomeomorphismError):
            pl.pl_bilip_constant(f)


class TestValidation:
    def test_identity_passes(self):
        tri = pl.kuhn_triangulation(3, (-1.0, 1.0), 2)
        rep = pl.pl_validate(pl.identity_plmap(tri))
        assert rep.ok
        assert rep.min_det == pytest.approx(1.0)

    def test_negative_determinant_flagged(self):
        tri = pl.kuhn_triangulation(2, (-1.0, 1.0), 2)
        images = tri.vertices.copy()
        center = np.all(tri.vertices == 0.0, axis=1)
        images[center] = [1.5, 0.5]
        rep = pl.pl_validate(pl.PLMap(tri, images))
        assert not rep.ok
        assert len(rep.negative_simplices) > 0

    def test_boundary_violation_flagged(self):
        tri = pl.kuhn_triangulation(2, (-1.0, 1.0), 2)
        images = tri.vertices.copy()
        images[0] += 0.25  # a corner vertex
        with pytest.raises(SupportViolationError):
            pl.PLMap(tri, images, boundary_fixed=True)


class TestTwistExample:
    def test_zero_displacement_is_identity(self):
        f = pl.pl_twist_example(2, 4, 0.0)
        assert np.array_equal(f.vertex_images, f.triangulation.vertices)

    def test_always_validates(self):
        for n, res, d in ((2, 4, 0.3), (2, 8, 0.5), (3, 3, 0.25)):
            rep = pl.pl_validate(pl.pl_twist_example(n, res, d))
            assert rep.ok

    def test_too_large_displacement_raises(self):
        with pytest.raises(DisplacementTooLargeError):
            pl.pl_twist_example(2, 8, 3.0)

    def test_inverse_roundtrip(self):
        f = pl.pl_twist_example(2, 6, 0.35)
        rng = np.random.default_rng(5)
        pts = rng.uniform(-1, 1, size=(3000, 2))
        back = pl.pl_eval_inverse(f, pl.pl_eval(f, pts))
        assert np.abs(back - pts).max() <= 1e-9


def brute_force_inverse(f, y):
    """Oracle: pull y back through the first image simplex, in index
    order, that contains it."""
    tri = f.triangulation
    for s in range(tri.n_simplices):
        q = f.vertex_images[tri.simplices[s]]
        w_rest = np.linalg.solve((q[1:] - q[0]).T, y - q[0])
        w = np.concatenate([[1.0 - w_rest.sum()], w_rest])
        if np.all(w >= -1e-9):
            return w @ tri.vertices[tri.simplices[s]]
    return None


def perturbed_linear_map(dim, res, seed):
    """A PL map that is not boundary-fixed and is non-trivial at every
    resolution: a contracting rotation plus a small jitter per vertex."""
    from bilip.core import rotation_matrix

    tri = pl.kuhn_triangulation(dim, (-1.0, 1.0), res)
    rng = np.random.default_rng(seed)
    a = 0.8 * rotation_matrix((0, 1), 0.2, dim)
    jitter = rng.uniform(-0.05, 0.05, size=tri.vertices.shape) * tri.cell
    f = pl.PLMap(tri, tri.vertices @ a.T + jitter, boundary_fixed=False)
    assert pl.pl_validate(f).ok
    return f


_TWISTS = {2: (4, 0.3), 3: (3, 0.25)}
_JITTERED = {1: 16, 2: 6, 3: 3, 4: 2}  # resolution of the jittered map per dimension


def face_offset_rows(f, rng, count, offsets):
    """``count`` points on random facets of random image simplices, each
    also moved by every one of ``offsets`` to either side along the
    facet's normal; only the rows inside the box are kept."""
    tri = f.triangulation
    n = tri.dim
    s = rng.integers(0, tri.n_simplices, size=count)
    drop = rng.integers(0, n + 1, size=count)
    w = rng.dirichlet(np.ones(n + 1), size=count)
    w[np.arange(count), drop] = 0.0
    w /= w.sum(axis=1, keepdims=True)
    img = f.vertex_images[tri.simplices[s]]
    on_face = np.einsum("pk,pkd->pd", w, img)
    grads = np.linalg.inv((img[:, 1:] - img[:, :1]).transpose(0, 2, 1))
    grads = np.concatenate([-grads.sum(axis=1, keepdims=True), grads], axis=1)
    normal = grads[np.arange(count), drop]
    normal /= np.linalg.norm(normal, axis=1, keepdims=True)
    rows = [on_face + sign * d * normal for d in offsets for sign in (-1.0, 1.0)]
    rows = np.concatenate(rows)
    return rows[np.all(np.abs(rows) <= 1.0, axis=1)]


class TestInverse:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_lattice_vertices(self, dim):
        f = pl.pl_twist_example(dim, *_TWISTS[dim])
        back = pl.pl_eval_inverse(f, f.vertex_images)
        np.testing.assert_allclose(back, f.triangulation.vertices, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_shared_simplex_faces(self, dim):
        # convex combinations of all but one vertex of a simplex lie on
        # a face that two simplices share (or on the box boundary)
        f = pl.pl_twist_example(dim, *_TWISTS[dim])
        tri = f.triangulation
        rng = np.random.default_rng(6)
        simplices = tri.simplices[rng.integers(0, tri.n_simplices, size=500)]
        drop = rng.integers(0, dim + 1, size=500)
        w = rng.dirichlet(np.ones(dim + 1), size=500)
        w[np.arange(500), drop] = 0.0
        w /= w.sum(axis=1, keepdims=True)
        x = np.einsum("pk,pkd->pd", w, tri.vertices[simplices])
        back = pl.pl_eval_inverse(f, pl.pl_eval(f, x))
        np.testing.assert_allclose(back, x, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_cube_edges(self, dim):
        f = pl.pl_twist_example(dim, *_TWISTS[dim])
        tri = f.triangulation
        rng = np.random.default_rng(7)
        x = tri.vertices[rng.integers(0, tri.n_vertices, size=500)].copy()
        axis = rng.integers(0, dim, size=500)
        x[np.arange(500), axis] += rng.uniform(-1, 1, size=500) * tri.cell
        x = np.clip(x, -1.0, 1.0)
        back = pl.pl_eval_inverse(f, pl.pl_eval(f, x))
        np.testing.assert_allclose(back, x, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_matches_brute_force_oracle(self, dim):
        # uniform rows, which the walk certifies, and rows on and near
        # shared image faces, which it leaves to the search
        f = jittered_fixed_map(dim, _JITTERED[dim])
        rng = np.random.default_rng(8)
        y = np.concatenate([rng.uniform(-1, 1, size=(150, dim)),
                            face_offset_rows(f, rng, 40, (0.0, 1e-12, 1e-10, 1e-8))])
        _, certified = pl._walk(f.triangulation, pl._inverse_table(f), y)
        assert 100 <= certified.sum() < len(y) - 50
        got = pl.pl_eval_inverse(f, y)
        for yi, g in zip(y, got):
            np.testing.assert_allclose(g, brute_force_inverse(f, yi), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_walk_gives_the_search_bits(self, dim):
        # a certified row is one the search pulls back through the same
        # simplex, with the same arithmetic
        f = jittered_fixed_map(dim, _JITTERED[dim])
        rng = np.random.default_rng(9)
        y = np.concatenate([rng.uniform(-1, 1, size=(2000, dim)),
                            face_offset_rows(f, rng, 500, (0.0, 1e-12, 1e-10, 1e-8, 1e-6))])
        walked, certified = pl._walk(f.triangulation, pl._inverse_table(f), y)
        searched, found = pl._first_containing(f, y)
        assert found.all() and 0 < certified.sum() < len(y)
        assert np.array_equal(walked[certified], searched[certified])
        assert np.array_equal(pl.pl_eval_inverse(f, y), searched)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_kuhn_locate_matches_brute_force(self, dim):
        # of the simplices containing a point, the one in the cube that
        # pl_eval picks with the lowest index: ties keep the lower axis
        # first, which is the lexicographically first axis order; the
        # cells are powers of two, so the tied rows tie exactly
        tri = pl.kuhn_triangulation(dim, (-1.0, 1.0), {1: 16, 2: 8, 3: 4, 4: 2}[dim])
        x = mixed_batch(tri, seed=dim)
        x = np.concatenate([tri.vertices, x[np.all(np.abs(x) <= 1.0, axis=1)][:400]])
        verts = tri.vertices[tri.simplices]
        e_inv = np.linalg.inv((verts[:, 1:] - verts[:, :1]).transpose(0, 2, 1))
        cube = np.minimum(np.floor((x - tri.lo) / tri.cell), tri.resolution - 1)
        got = pl._kuhn_locate(tri, x)
        for xi, ci, g in zip(x, cube, got):
            w_rest = np.einsum("sij,sj->si", e_inv, xi - verts[:, 0])
            w = np.concatenate([1.0 - w_rest.sum(axis=1, keepdims=True), w_rest], axis=1)
            containing = np.flatnonzero(np.all(w >= -1e-12, axis=1))
            in_cube = containing[np.all(verts[containing, 0] == tri.lo + ci * tri.cell, axis=1)]
            assert g == in_cube[0]

    @pytest.mark.parametrize("dim, res", [(2, 16), (3, 4)])
    def test_walk_covers_the_twists_of_the_benchmark(self, dim, res, monkeypatch):
        def unexpected(f):
            raise AssertionError("the bucket index was built")

        monkeypatch.setattr(pl, "_build_buckets", unexpected)
        f = pl.pl_twist_example(dim, res, 0.1)
        x = np.random.default_rng(11).uniform(-0.95, 0.95, size=(1000, dim))
        np.testing.assert_allclose(pl.pl_eval_inverse(f, pl.pl_eval(f, x)), x,
                                   rtol=0, atol=1e-12)
        assert f._buckets is None

    @pytest.mark.parametrize("dim", [2, 3])
    def test_buckets_list_touching_boxes_in_simplex_order(self, dim):
        f = pl.pl_twist_example(dim, *_TWISTS[dim])
        tri = f.triangulation
        indptr, simplices = pl._build_buckets(f)
        img = f.vertex_images[tri.simplices]
        diag = np.linalg.norm(img.max(axis=1) - img.min(axis=1), axis=1).max()
        pad = (dim + 1) * 1e-9 * diag
        lo = np.clip(np.floor((img.min(axis=1) - tri.lo - pad) / tri.cell),
                     0, tri.resolution - 1)
        hi = np.clip(np.floor((img.max(axis=1) - tri.lo + pad) / tri.cell),
                     0, tri.resolution - 1)
        cubes = itertools.product(range(tri.resolution), repeat=dim)  # C order
        for c, cube in enumerate(cubes):
            touching = np.flatnonzero(np.all((lo <= cube) & (cube <= hi), axis=1))
            assert simplices[indptr[c]:indptr[c + 1]].tolist() == touching.tolist()
        assert indptr[-1] == simplices.size

    def test_own_cube_lists_the_tolerance_region(self):
        # on [0, 3] with three cells the image of the last cell is
        # [0.002, 2 - 1.5e-9], and y = 2 passes its test (barycentric
        # weight -7.5e-10); the box, padded by 2e-9 times its length,
        # reaches y's own cube 2, which so lists the last simplex alone
        tri = pl.kuhn_triangulation(1, (0.0, 3.0), 3)
        f = pl.PLMap(tri, [[0.0], [0.001], [0.002], [2.0 - 1.5e-9]],
                     boundary_fixed=False)
        indptr, simplices = pl._build_buckets(f)
        assert simplices[indptr[2]:indptr[3]].tolist() == [2]
        back = pl.pl_eval_inverse(f, [[2.0]])
        assert back[0, 0] == pytest.approx(3.0, abs=1e-8)
        assert brute_force_inverse(f, np.array([2.0])) == pytest.approx(back[0])
        with pytest.raises(OutOfDomainError):
            pl.pl_eval_inverse(f, [[2.5]])

    def test_outside_box_passes_through_when_boundary_fixed(self):
        f = pl.pl_twist_example(3, 3, 0.25)
        y = np.array([[1.5, 0.0, 0.0], [-2.0, 3.0, 0.5], [0.1, 0.2, 0.3]])
        back = pl.pl_eval_inverse(f, y)
        assert np.array_equal(back[:2], y[:2])
        np.testing.assert_allclose(pl.pl_eval(f, back[2:]), y[2:], rtol=0, atol=1e-12)

    def test_outside_box_raises_otherwise(self):
        f = perturbed_linear_map(2, 4, seed=0)
        with pytest.raises(OutOfDomainError):
            pl.pl_eval_inverse(f, [[0.0, 0.0], [1.5, 0.0]])

    def test_image_past_the_box(self):
        # a map that is not boundary-fixed can carry the box past itself;
        # its inverse covers the whole image, not only the box
        tri = pl.kuhn_triangulation(2, (-1.0, 1.0), 4)
        f = pl.PLMap(tri, 2.0 * tri.vertices, boundary_fixed=False)
        y = pl.pl_eval(f, [[0.75, 0.0]])
        assert np.array_equal(y, [[1.5, 0.0]])
        np.testing.assert_allclose(pl.pl_eval_inverse(f, y), [[0.75, 0.0]], rtol=0, atol=1e-15)
        with pytest.raises(OutOfDomainError):
            pl.pl_eval_inverse(f, [[1.5, 0.0], [2.5, 0.0]])  # (2.5, 0) is past the image

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("res", [1, 4, 7])
    def test_round_trip_past_the_box(self, dim, res):
        tri = pl.kuhn_triangulation(dim, (-1.0, 1.0), res)
        f = pl.PLMap(tri, 2.0 * tri.vertices + 0.3, boundary_fixed=False)
        x = np.random.default_rng(res).uniform(-1, 1, size=(500, dim))
        np.testing.assert_allclose(pl.pl_eval_inverse(f, pl.pl_eval(f, x)), x,
                                   rtol=0, atol=1e-14)

    def test_inside_box_outside_image_raises(self):
        f = perturbed_linear_map(2, 4, seed=0)  # the image misses the corners
        with pytest.raises(OutOfDomainError):
            pl.pl_eval_inverse(f, [[0.99, 0.99]])

    @pytest.mark.parametrize("res", [1, 2, 16])
    @pytest.mark.parametrize("boundary_fixed", [True, False])
    def test_forward_of_inverse_is_identity(self, res, boundary_fixed):
        if boundary_fixed:
            f = pl.pl_twist_example(2, res, 0.1)
            if res == 16:
                assert not np.array_equal(f.vertex_images, f.triangulation.vertices)
        else:
            f = perturbed_linear_map(2, res, seed=res)
        x = np.random.default_rng(res).uniform(-1, 1, size=(4000, 2))
        y = pl.pl_eval(f, x)
        y = y[np.all(np.abs(y) <= 1.0, axis=1)]
        assert y.shape[0] > 1000
        np.testing.assert_allclose(pl.pl_eval(f, pl.pl_eval_inverse(f, y)), y,
                                   rtol=0, atol=1e-12)


class TestMapTextRoundTrip:
    """A PLMap is written and read as canonical ``plmap(...)`` map text."""

    @staticmethod
    def round_trip(f, path):
        save_map(f, path)
        g = load_map(path, pl.PLMap)
        assert g.triangulation.dim == f.triangulation.dim
        assert (g.triangulation.lo, g.triangulation.hi) == (f.triangulation.lo,
                                                             f.triangulation.hi)
        assert g.triangulation.resolution == f.triangulation.resolution
        assert g.boundary_fixed == f.boundary_fixed
        assert np.array_equal(g.vertex_images, f.vertex_images)

    def test_exact_round_trip(self, tmp_path):
        self.round_trip(pl.pl_twist_example(2, 6, 0.3), tmp_path / "twist.map")

    def test_three_dimensional(self, tmp_path):
        self.round_trip(pl.pl_twist_example(3, 2, 0.2), tmp_path / "twist3.map")

    def test_free_boundary(self, tmp_path):
        f = perturbed_linear_map(2, 4, seed=5)
        assert not f.boundary_fixed
        self.round_trip(f, tmp_path / "free.map")


def jittered_fixed_map(dim, res):
    """A boundary-fixed map whose interior vertices each move by at most
    a tenth of a cell, so every simplex keeps its orientation."""
    tri = pl.kuhn_triangulation(dim, (-1.0, 1.0), res)
    rng = np.random.default_rng(100 + dim)
    images = tri.vertices.copy()
    inner = ~tri.boundary_vertex_mask()
    images[inner] += rng.uniform(-0.1, 0.1, size=(int(inner.sum()), dim)) * tri.cell
    return pl.PLMap(tri, images)


def mixed_batch(tri, seed):
    """Rows in shuffled order: uniform over a box past [-1, 1]^n (so
    some rows lie outside), every lattice point, and rows whose in-cube
    coordinates tie, drawn from {0, 1/4, 1/2, 1}."""
    rng = np.random.default_rng(seed)
    n = tri.dim
    cube = rng.integers(0, tri.resolution, size=(6000, n))
    tied = tri.lo + tri.cell * (cube + rng.choice([0.0, 0.25, 0.5, 1.0], size=(6000, n)))
    rows = np.concatenate([rng.uniform(-1.25, 1.25, size=(20000, n)), tri.vertices, tied])
    return rows[rng.permutation(rows.shape[0])]


class TestPinnedBits:
    """``pl_eval`` and ``pl_eval_inverse`` keep their output bits.

    ``tests/data/pl_eval_digests.jsonl`` holds one line per case with the
    sha256 of each output's bytes. The first three cases, written by the
    commit before the column-wise ``pl_eval`` kernel, hash the forward
    map on ``mixed_batch`` and on its in-box rows alone, and the inverse
    on ``mixed_batch``, of jittered boundary-fixed maps. The last two,
    written by the commit before the walking inverse, hash the inverse on
    the paths those miss: a free-boundary map (forward on the in-box rows,
    inverse on their images) and a near-isometric 3-d twist (forward and
    inverse on ``mixed_batch``, inverse on its forward images).
    """

    CASES = ((2, 16), (3, 4), (4, 2))

    @staticmethod
    def line(case, rows, outputs):
        return json.dumps({"case": case, "rows": rows, "sha256": [
            hashlib.sha256(out.tobytes()).hexdigest() for out in outputs]}, sort_keys=True)

    @classmethod
    def digests(cls, dim, res):
        f = jittered_fixed_map(dim, res)
        x = mixed_batch(f.triangulation, seed=dim)
        inside = x[np.all(np.abs(x) <= 1.0, axis=1)]
        outputs = (pl.pl_eval(f, x), pl.pl_eval(f, inside), pl.pl_eval_inverse(f, x))
        return cls.line(f"dim={dim},res={res}", [len(x), len(inside)], outputs)

    @classmethod
    def free_boundary_digests(cls):
        f = perturbed_linear_map(3, 4, seed=27)
        x = mixed_batch(f.triangulation, seed=27)
        y = pl.pl_eval(f, x[np.all(np.abs(x) <= 1.0, axis=1)])
        return cls.line("free,dim=3,res=4", [len(y)], (y, pl.pl_eval_inverse(f, y)))

    @classmethod
    def twist_digests(cls):
        f = pl.pl_twist_example(3, 4, 0.1)
        x = mixed_batch(f.triangulation, seed=28)
        y = pl.pl_eval(f, x)
        outputs = (y, pl.pl_eval_inverse(f, x), pl.pl_eval_inverse(f, y))
        return cls.line("twist,dim=3,res=4,disp=0.1", [len(x)], outputs)

    def test_digests_match_pinned_lines(self):
        path = Path(__file__).parent / "data" / "pl_eval_digests.jsonl"
        lines = [self.digests(dim, res) for dim, res in self.CASES]
        lines += [self.free_boundary_digests(), self.twist_digests()]
        assert lines == path.read_text().splitlines()


class TestBlocks:
    """``pl_eval`` works in blocks of ``pl._BLOCK`` rows, by slices when
    every row lies in the box; no row depends on another."""

    @pytest.mark.parametrize("dim, res", [(1, 16), (2, 16), (3, 4)])
    def test_uneven_split_matches_whole_batch(self, dim, res):
        f = jittered_fixed_map(dim, res)
        rng = np.random.default_rng(dim)
        x = rng.uniform(-1.1, 1.1, size=(3 * pl._BLOCK + 1234, dim))
        assert 0 < np.sum(np.any(np.abs(x) > 1.0, axis=1)) < len(x)
        cuts = [0, 1, 777, pl._BLOCK + 5, 2 * pl._BLOCK, 2 * pl._BLOCK + 2, len(x)]
        parts = [pl.pl_eval(f, x[a:b]) for a, b in zip(cuts, cuts[1:])]
        assert np.array_equal(np.concatenate(parts), pl.pl_eval(f, x))

    def test_in_box_rows_alone_match_a_mixed_batch(self):
        f = jittered_fixed_map(2, 16)
        x = np.random.default_rng(5).uniform(-1.1, 1.1, size=(2 * pl._BLOCK, 2))
        inside = np.all(np.abs(x) <= 1.0, axis=1)
        assert np.array_equal(pl.pl_eval(f, x[inside]), pl.pl_eval(f, x)[inside])

    def test_fortran_ordered_input(self):
        f = jittered_fixed_map(3, 4)
        x = np.random.default_rng(6).uniform(-1.0, 1.0, size=(100, 3))
        out = pl.pl_eval(f, np.asfortranarray(x))
        assert out.flags.c_contiguous and np.array_equal(out, pl.pl_eval(f, x))

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_empty_batch(self, dim):
        f = jittered_fixed_map(dim, 2)
        out = pl.pl_eval(f, np.empty((0, dim)))
        assert out.shape == (0, dim) and out.dtype == np.float64

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_single_row(self, dim):
        f = jittered_fixed_map(dim, 3)
        x = mixed_batch(f.triangulation, seed=dim)[:50]
        whole = pl.pl_eval(f, x)
        for row, want in zip(x, whole):
            assert np.array_equal(pl.pl_eval(f, row), want[None, :])
