"""Tests for the linear-algebra and sphere-metric kernel."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bilip import core
from bilip.errors import (
    DimensionMismatchError,
    InvalidMatrixError,
    InvalidPlaneError,
    OffSphereError,
)


class TestOperatorNorm:
    def test_identity_is_isometry(self):
        assert core.operator_norm(np.eye(3)) == pytest.approx(1.0, rel=1e-10)

    def test_diagonal_singular_values(self):
        assert core.operator_norm([[2.0, 0.0], [0.0, 0.5]]) == pytest.approx(
            2.0, rel=1e-10
        )

    def test_nilpotent_shear(self):
        # A^T A = diag(0, 4) by hand, so the largest singular value is 2
        assert core.operator_norm([[0.0, 2.0], [0.0, 0.0]]) == pytest.approx(
            2.0, rel=1e-10
        )

    def test_start_vector_on_null_direction(self):
        # the matrix annihilates the all-ones vector; sigma is still 2
        assert core.operator_norm([[1.0, -1.0], [-1.0, 1.0]]) == pytest.approx(
            2.0, rel=1e-10
        )

    def test_zero_matrix(self):
        assert core.operator_norm(np.zeros((4, 4))) == 0.0

    def test_matches_svd_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(400):
            n = int(rng.integers(1, 9))
            m = rng.normal(size=(n, n))
            assert core.operator_norm(m) == pytest.approx(
                np.linalg.norm(m, 2), rel=1e-9
            )

    def test_rejects_bad_input(self):
        with pytest.raises(InvalidMatrixError):
            core.operator_norm(np.ones((2, 3)))
        with pytest.raises(InvalidMatrixError):
            core.operator_norm([[np.nan, 0.0], [0.0, 1.0]])
        with pytest.raises(InvalidMatrixError):
            core.operator_norm([[np.inf, 0.0], [0.0, 1.0]])


def _bits(values):
    """The float64 bit patterns, so that NaN payloads and -0.0 count."""
    return np.ascontiguousarray(values).view(np.uint64)


def _rows(rng, n_rows, n):
    """Normal rows, each scaled by a factor from 1e-5 to 1e5."""
    scale = 10.0 ** rng.uniform(-5.0, 5.0, size=(n_rows, 1))
    return rng.normal(size=(n_rows, n)) * scale


_BROADCAST_OPS = (np.multiply, np.divide, np.add, np.subtract)


def _check_broadcast(v, s):
    """``row_broadcast`` equals ``op(v, s[:, None])`` bit for bit for
    each op, into a fresh array, a given one and ``v`` itself, and
    leaves its inputs untouched."""
    for op in _BROADCAST_OPS:
        want = _bits(op(v, s[:, None]))
        v_bits, s_bits = _bits(v).copy(), _bits(s).copy()
        assert np.array_equal(_bits(core.row_broadcast(op, v, s)), want)
        out = np.full(want.shape, np.nan)
        assert core.row_broadcast(op, v, s, out=out) is out
        assert np.array_equal(_bits(out), want)
        assert np.array_equal(_bits(v), v_bits) and np.array_equal(_bits(s), s_bits)
        if v.shape == want.shape:
            w = v.copy()
            assert core.row_broadcast(op, w, s, out=w) is w
            assert np.array_equal(_bits(w), want)


def _check_shift(rows, s, w):
    """``row_shift`` writes ``op(rows, s[:, None] * w)`` into ``rows`` bit
    for bit for addition and subtraction, and leaves ``s`` and ``w``
    untouched."""
    for op in (np.add, np.subtract):
        want = _bits(op(rows, s[:, None] * w[None, :]))
        s_bits, w_bits = _bits(s).copy(), _bits(w).copy()
        got = rows.copy()
        assert core.row_shift(op, got, s, w) is got
        assert np.array_equal(_bits(got), want)
        assert np.array_equal(_bits(s), s_bits) and np.array_equal(_bits(w), w_bits)


class TestRowKernels:
    """``row_norms`` and ``row_dots`` equal numpy's reductions bit for bit,
    ``row_broadcast(op, v, s)`` equals ``op(v, s[:, None])`` and
    ``row_shift(op, rows, s, w)`` equals ``op(rows, s[:, None] * w)``."""

    @pytest.mark.parametrize("n", range(1, 13))
    @pytest.mark.parametrize("n_rows", [1, 2, 7, 131072])
    def test_equal_numpy_bit_for_bit(self, n, n_rows):
        rng = np.random.default_rng([n, n_rows])
        a, b = _rows(rng, n_rows, n), _rows(rng, n_rows, n)
        row = b[0].copy()
        assert np.array_equal(_bits(core.row_norms(a)),
                              _bits(np.linalg.norm(a, axis=1)))
        assert np.array_equal(_bits(core.row_dots(a, b)),
                              _bits(np.sum(a * b, axis=1)))
        assert np.array_equal(_bits(core.row_dots(a, row)),
                              _bits(np.sum(a * row, axis=1)))

    @pytest.mark.parametrize("n", range(1, 13))
    def test_strided_column_slices(self, n):
        rng = np.random.default_rng(n)
        pts = _rows(rng, 1000, n + 2)
        for cols in (np.s_[1:], np.s_[:-1], np.s_[::2], np.s_[1:n + 1]):
            v = pts[:, cols]
            assert np.array_equal(_bits(core.row_norms(v)),
                                  _bits(np.linalg.norm(v, axis=1)))
            assert np.array_equal(_bits(core.row_dots(v, v)),
                                  _bits(np.sum(v ** 2, axis=1)))
        columns_first = np.asfortranarray(pts)
        assert np.array_equal(_bits(core.row_norms(columns_first)),
                              _bits(np.linalg.norm(columns_first, axis=1)))

    def test_zero_columns_of_a_1d_point(self):
        # locate_replication_disks sums the squares of pts[:, 1:]
        pts = np.array([[3.0], [-0.5]])
        rest = pts[:, 1:]
        assert np.array_equal(_bits(core.row_dots(rest, rest)), _bits(np.zeros(2)))
        assert np.array_equal(_bits(core.row_norms(rest)), _bits(np.zeros(2)))

    def test_negative_zero_products_sum_to_positive_zero(self):
        a = -np.zeros((3, 2))
        ones = np.ones(2)
        assert np.array_equal(_bits(core.row_dots(a, ones)),
                              _bits(np.sum(a * ones, axis=1)))

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("n", range(1, 13))
    def test_huge_and_non_finite_entries(self, n):
        rng = np.random.default_rng(100 + n)
        specials = np.array([1e308, -1e308, np.inf, -np.inf, np.nan, 0.0, -0.0, 1.0])
        a = rng.choice(specials, size=(4096, n))
        b = rng.choice(specials, size=(4096, n))
        assert np.array_equal(_bits(core.row_norms(a)),
                              _bits(np.linalg.norm(a, axis=1)))
        assert np.array_equal(_bits(core.row_dots(a, b)),
                              _bits(np.sum(a * b, axis=1)))
        assert np.array_equal(_bits(core.row_dots(a, b[0])),
                              _bits(np.sum(a * b[0], axis=1)))

    @pytest.mark.parametrize("n", range(1, 10))
    @pytest.mark.parametrize("n_rows", [0, 1, 32768])
    def test_broadcast_equals_numpy_bit_for_bit(self, n, n_rows):
        rng = np.random.default_rng([n, n_rows, 7])
        v, s = _rows(rng, n_rows, n), _rows(rng, n_rows, 1)[:, 0]
        _check_broadcast(v, s)
        _check_broadcast(_rows(rng, 1, n)[0], s)  # one (n,) row for every row of s
        _check_broadcast(_rows(rng, 1, n), s)  # one (1, n) row, as disk_points takes
        _check_shift(v, s, _rows(rng, 1, n)[0])
        _check_shift(v, s, np.eye(n)[0])  # e1, as the replication transport takes

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("n", range(1, 10))
    def test_broadcast_signed_zeros_non_finite_and_subnormals(self, n):
        rng = np.random.default_rng(200 + n)
        specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -2.5e-310,
                             2.2250738585072014e-308, 1.0, -3.0, 1e-300, 1e308])
        v = rng.choice(specials, size=(4096, n))
        s = rng.choice(specials, size=4096)
        _check_broadcast(v, s)
        _check_broadcast(v[0], s)
        _check_shift(v, s, v[0])
        _check_shift(v, s, np.eye(n)[-1])

    def test_broadcast_strided_rows(self):
        rng = np.random.default_rng(3)
        pts = _rows(rng, 1000, 5)
        s = pts[:, 4]  # a column view
        _check_broadcast(pts[:, 1:4], s)
        _check_broadcast(np.asfortranarray(pts[:, :3]), s)


def _oracle(mats):
    return np.array([np.linalg.norm(m, 2) for m in mats])


_unit_entries = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


@st.composite
def _stacks(draw, max_scale_exp=300):
    """(S, n, n) stacks with n in 1..8, all scaled by one power of ten."""
    n = draw(st.integers(1, 8))
    s = draw(st.integers(1, 4))
    base = draw(arrays(float, (s, n, n), elements=_unit_entries))
    return base * 10.0 ** draw(st.integers(-max_scale_exp, max_scale_exp))


class TestLargestSingularValues:
    """The batched kernel against ``np.linalg.norm(m, 2)``, which is
    the SVD oracle, to 1e-13 relative."""

    @settings(max_examples=200, deadline=None)
    @given(_stacks())
    def test_matches_oracle_at_every_scale(self, mats):
        np.testing.assert_allclose(core.largest_singular_values(mats),
                                   _oracle(mats), rtol=1e-13, atol=0.0)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 8), st.data())
    def test_rank_deficient(self, n, data):
        r = data.draw(st.integers(0, n - 1))
        a = data.draw(arrays(float, (n, r), elements=_unit_entries))
        b = data.draw(arrays(float, (r, n), elements=_unit_entries))
        m = (a @ b)[None]
        np.testing.assert_allclose(core.largest_singular_values(m), _oracle(m),
                                   rtol=1e-13, atol=0.0)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 8), st.data())
    def test_near_isometries(self, n, data):
        # I + 1e-8 E: the regime of the paper's PL maps
        e = data.draw(arrays(float, (3, n, n), elements=_unit_entries))
        mats = np.eye(n) + 1e-8 * e
        np.testing.assert_allclose(core.largest_singular_values(mats),
                                   _oracle(mats), rtol=1e-13, atol=0.0)

    def test_extreme_diagonals(self):
        mats = np.array([np.diag([1e307, 1.0]), np.diag([1e-307, 1e-300]),
                         np.zeros((2, 2))])
        # the Gram matrix would give inf and 0 for the first two
        np.testing.assert_allclose(core.largest_singular_values(mats),
                                   [1e307, 1e-300, 0.0], rtol=1e-15, atol=0.0)

    def test_affine_claim_keeps_full_range(self):
        from bilip.maps import AffineMap

        assert AffineMap(np.diag([1e307, 1.0])).lambda_claimed == 1e307

    def test_rejects_non_square_stack(self):
        with pytest.raises(InvalidMatrixError):
            core.largest_singular_values(np.ones((2, 2, 3)))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 3), st.floats(0.0, 0.3), st.data())
    def test_pl_constant_never_below_oracle(self, dim, displacement, data):
        from bilip import pl

        res = data.draw(st.integers(2, 8 if dim == 2 else 3))
        f = pl.pl_twist_example(dim, res, displacement)
        diffs = f.differentials()
        exact = max(_oracle(diffs).max(), _oracle(np.linalg.inv(diffs)).max())
        assert pl.pl_bilip_constant(f) >= exact


class TestFrobeniusNorm:
    def test_all_ones(self):
        assert core.frobenius_norm([[1.0, 1.0], [1.0, 1.0]]) == 2.0

    def test_identity_sqrt_n(self):
        assert core.frobenius_norm(np.eye(4)) == 2.0

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidMatrixError):
            core.frobenius_norm([[1.0, np.nan], [0.0, 1.0]])

    def test_norm_sandwich_random(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            m = rng.normal(size=(3, 3))
            op = core.operator_norm(m)
            fro = core.frobenius_norm(m)
            assert op <= fro * (1 + 1e-9)
            assert fro <= np.sqrt(3) * op * (1 + 1e-9)


class TestNormInequalities:
    """The matrix-norm chain and the operator bound on vectors."""

    def test_chain_on_thousand_matrices(self):
        rng = np.random.default_rng(123)
        for _ in range(1000):
            n = int(rng.integers(1, 9))
            m = rng.normal(size=(n, n))
            op = core.operator_norm(m)
            fro = core.frobenius_norm(m)
            assert op <= fro * (1 + 1e-9)
            assert fro <= np.sqrt(n) * op * (1 + 1e-9)

    def test_matrix_vector_bound(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            n = int(rng.integers(1, 9))
            m = rng.normal(size=(n, n))
            x = rng.normal(size=n)
            assert np.linalg.norm(m @ x) <= core.operator_norm(m) * np.linalg.norm(
                x
            ) * (1 + 1e-9)


class TestSphereGeodesic:
    def test_orthogonal_unit_vectors(self):
        assert core.sphere_geodesic([1, 0], [0, 1]) == pytest.approx(np.pi / 2)

    def test_identity_of_indiscernibles(self):
        x = np.array([0.6, 0.8])
        assert core.sphere_geodesic(x, x) == 0.0

    def test_chord_arcsin_relation(self):
        # chord sqrt(2) corresponds to geodesic 2*arcsin(sqrt(2)/2) = pi/2
        expected = 2.0 * np.arcsin(np.sqrt(2.0) / 2.0)
        got = core.sphere_geodesic([1, 0], [0, 1])
        assert got == pytest.approx(expected, abs=1e-15)

    def test_antipodal_is_pi(self):
        assert core.sphere_geodesic([1, 0, 0], [-1, 0, 0]) == pytest.approx(np.pi)

    def test_off_sphere_rejected(self):
        with pytest.raises(OffSphereError):
            core.sphere_geodesic([1.1, 0], [0, 1])

    def test_slightly_off_sphere_renormalized(self):
        x = np.array([1.0 + 5e-10, 0.0])
        assert core.sphere_geodesic(x, [1.0, 0.0]) == pytest.approx(0.0, abs=1e-7)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            core.sphere_geodesic([1, 0], [0, 0, 1])

    def test_geodesic_chord_comparison(self):
        # chord <= geodesic <= (pi/2) * chord on sampled unit pairs
        rng = np.random.default_rng(11)
        for _ in range(2000):
            n = int(rng.integers(2, 6))
            x = rng.normal(size=n)
            y = rng.normal(size=n)
            x /= np.linalg.norm(x)
            y /= np.linalg.norm(y)
            geo = core.sphere_geodesic(x, y)
            chord = np.linalg.norm(x - y)
            assert geo >= chord - 1e-12
            assert geo <= (np.pi / 2) * chord + 1e-12


class TestRotationMatrix:
    def test_zero_angle_is_identity(self):
        assert np.array_equal(core.rotation_matrix((0, 1), 0.0, 3), np.eye(3))

    def test_quarter_turn(self):
        r = core.rotation_matrix((0, 1), np.pi / 2, 2)
        np.testing.assert_allclose(r @ [1, 0], [0, 1], atol=1e-15)

    def test_orthogonal_and_special(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            i = int(rng.integers(0, n - 1))
            j = int(rng.integers(i + 1, n))
            r = core.rotation_matrix((i, j), rng.uniform(-10, 10), n)
            assert core.orthogonality_defect(r) <= 1e-12
            assert abs(np.linalg.det(r) - 1.0) <= 1e-12

    def test_angle_addition(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            a, b = rng.uniform(-3, 3, size=2)
            lhs = core.rotation_matrix((0, 1), a, 4) @ core.rotation_matrix(
                (0, 1), b, 4
            )
            rhs = core.rotation_matrix((0, 1), a + b, 4)
            assert np.abs(lhs - rhs).max() <= 1e-12

    def test_invalid_planes(self):
        with pytest.raises(InvalidPlaneError):
            core.rotation_matrix((1, 1), 0.3, 3)
        with pytest.raises(InvalidPlaneError):
            core.rotation_matrix((0, 3), 0.3, 3)
        with pytest.raises(InvalidPlaneError):
            core.rotation_matrix((2, 0), 0.3, 3)
        with pytest.raises(InvalidPlaneError):
            core.rotation_matrix((0, 1), np.inf, 2)
