"""Property tests of the whole map algebra.

Random expressions of depth up to 3 are built from the constructors of
the map zoo (its entries, the same constructors with drawn parameters,
and compose, product and inverse on top). Every expression must keep
the inverse laws: its inverse node and the ``inverse(map=...)`` text
node agree bit for bit, undo the map within a tolerance scaled by the
claim, write canonical text that reads back byte-exactly with the
claim of the map itself, and evaluate each row as it does in a batch.
Every expression's displacement must equal f(x) - x where that
difference is well conditioned, and a sampled lower bound must never
beat its claim.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bilip.pl
from bilip import estimators as E
from bilip import maps as M
from bilip.core import rotation_matrix
from bilip.errors import MapFormatError, NotInvertibleError
from bilip.mapformat import map_to_text, parse_map
from bilip.pl import pl_twist_example
from test_mapformat import map_zoo

ZOO = {}  # dimension -> zoo entries of that dimension
for _m in map_zoo():
    ZOO.setdefault(_m.dim, []).append(_m)

DIMS = (1, 2, 3, 4)
SCALES = np.repeat([0.5, 4.0, 60.0], 8)  # inside the disks and PL boxes, and far out


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def leaves(draw, dim):
    """A map expression of dimension ``dim`` with no compose, product
    or inverse node on top."""
    kinds = ["affine"] if dim == 1 else ["affine", "radial", "twist", "translated",
                                         "spiral"]
    kinds += ["zoo"] if dim in ZOO else []
    kinds += ["pl"] if dim in (2, 3) else []
    kind = draw(st.sampled_from(kinds))
    if kind == "zoo":
        return draw(st.sampled_from(ZOO[dim]))
    if kind == "affine":
        stretch = np.diag([draw(_floats(0.5, 2.0)) for _ in range(dim)])
        turn = (rotation_matrix((0, 1), draw(_floats(-3.0, 3.0)), dim) if dim > 1
                else np.eye(1))
        offset = [draw(_floats(-3.0, 3.0)) for _ in range(dim)]
        return M.affine(turn @ stretch, offset)
    if kind == "radial":
        return M.radial_extension(M.make_latitude_sphere_map(draw(_floats(-0.9, 0.9)),
                                                             dim=dim))
    if kind in ("twist", "translated"):
        twist = M.make_twist_disk_map(dim=dim, amplitude=draw(_floats(-0.9, 0.9)))
        return (M.disk_replication(twist) if kind == "twist"
                else M.translated_replication(uniform=twist))
    if kind == "spiral":
        return M.spiral_map(M.LogSpiralProfile(draw(_floats(-1.5, 1.5)), (0, 1), dim))
    resolution = 4 if dim == 2 else 2
    return M.pl_homeomorphism(pl_twist_example(dim, resolution, draw(_floats(0.05, 0.3))))


@st.composite
def expressions(draw, dim, depth=3):
    """A random map expression of dimension ``dim`` and depth at most
    ``depth``; a leaf has depth 1."""
    ops = ["leaf"] if depth == 1 else ["leaf", "compose", "inverse"]
    ops += ["product"] if depth > 1 and dim > 1 else []
    op = draw(st.sampled_from(ops))
    if op == "leaf":
        return draw(leaves(dim))
    if op == "compose":
        return M.compose(draw(expressions(dim, depth - 1)),
                         draw(expressions(dim, depth - 1)))
    if op == "inverse":
        return M.inverse(draw(expressions(dim, depth - 1)))
    k = draw(st.integers(1, dim - 1))
    return M.product_map(draw(expressions(k, depth - 1)),
                         draw(expressions(dim - k, depth - 1)))


@st.composite
def cases(draw):
    """A random expression and points at three scales in its space."""
    m = draw(st.sampled_from(DIMS).flatmap(expressions))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    return m, rng.normal(size=(SCALES.size, m.dim)) * SCALES[:, None]


class TestInverseLaws:
    @settings(max_examples=30)
    @given(cases())
    def test_inverse_node_and_text_node_agree(self, case):
        m, pts = case
        inv, text_node = m.inverse(), M.inverse(m)
        image = M.evaluate_points(inv, pts)
        assert np.array_equal(image, M.evaluate_points(text_node, pts))
        assert np.array_equal(image, M.evaluate_inverse_points(m, pts))
        assert np.array_equal(M.displacement_points(inv, pts),
                              M.displacement_points(text_node, pts))

    @settings(max_examples=30)
    @given(cases())
    def test_inverse_undoes_the_map(self, case):
        m, pts = case
        back = M.evaluate_points(m.inverse(), M.evaluate_points(m, pts))
        err = (np.linalg.norm(back - pts, axis=1)
               / np.maximum(1.0, np.linalg.norm(pts, axis=1)))
        assert err.max() <= 1e-13 * m.lambda_claimed ** 2

    @settings(max_examples=30)
    @given(cases())
    def test_inverse_text_round_trips_with_the_claim(self, case):
        m, _ = case
        inv = m.inverse()
        text = map_to_text(inv)
        assert map_to_text(parse_map(text)) == text
        assert inv.lambda_claimed == m.lambda_claimed

    @settings(max_examples=30)
    @given(cases())
    def test_one_row_evaluation_equals_batched(self, case):
        m, pts = case
        for node in (m, m.inverse()):
            batch = M.evaluate_points(node, pts)
            disp = M.displacement_points(node, pts)
            for i in range(pts.shape[0]):
                assert np.array_equal(M.evaluate_points(node, pts[i : i + 1])[0], batch[i])
                assert np.array_equal(M.displacement_points(node, pts[i : i + 1])[0],
                                      disp[i])


class TestDisplacementAndClaims:
    @settings(max_examples=30)
    @given(cases())
    def test_displacement_is_image_minus_point(self, case):
        # near the origin f(x) - x loses no precision to cancellation
        m, pts = case
        pts = pts[np.linalg.norm(pts, axis=1) <= 10.0]
        err = np.linalg.norm(M.displacement_points(m, pts)
                             - (M.evaluate_points(m, pts) - pts), axis=1)
        assert np.all(err <= 1e-13 * m.lambda_claimed
                      * np.maximum(1.0, np.linalg.norm(pts, axis=1)))

    @settings(max_examples=30)
    @given(cases(), st.integers(0, 2 ** 16))
    def test_sampled_bound_never_beats_the_claim(self, case, seed):
        # the relative slack covers rounding in ratios of pairs as close
        # as 1e-5 at radius 10
        m, _ = case
        cfg = E.SamplerConfig(seed=seed, region=E.ball(np.zeros(m.dim), 10.0),
                              n_pairs=2000)
        assert E.bilip_lower_bound(m, cfg).lambda_lower <= m.lambda_claimed * (1.0 + 1e-9)


class TestInverseNodes:
    def test_inverse_replication_keeps_the_drift_law(self):
        # 2^k ||g^-1(x0) - x0|| along 4^k e1 + 2^k x0, as the forward map does
        g = M.make_twist_disk_map(dim=2)
        x0 = np.array([0.5, 0.0])
        ks = np.arange(1, 41)
        pts = (4.0 ** ks)[:, None] * M.unit_axis(2) + (2.0 ** ks)[:, None] * x0
        drift = np.linalg.norm(M.displacement_points(M.inverse(M.disk_replication(g)), pts),
                               axis=1)
        law = 2.0 ** ks * np.linalg.norm(M.disk_apply(g.inverse(), x0) - x0)
        assert np.abs(drift / law - 1.0).max() <= 1e-12

    def test_composition_inverse_keeps_the_claim(self):
        # the claims 1.1, 1.2, 1.4 multiply to 1.8479999999999999 in this
        # order and to 1.848 in reverse
        m = M.compose(M.compose(*(M.spiral_map(M.LogSpiralProfile(c, (0, 1), 2))
                                  for c in (0.05, 0.1))),
                      M.spiral_map(M.LogSpiralProfile(0.2, (0, 1), 2)))
        assert m.inverse().lambda_claimed == m.lambda_claimed

    def test_singular_affine_inverse_raises(self):
        with pytest.raises(NotInvertibleError):
            M.affine([[1.0, 2.0], [2.0, 4.0]]).inverse()

    def test_singular_inverse_text_is_a_format_error(self):
        # the inverse node is built with the text node, so the CLI exits 2
        with pytest.raises(MapFormatError):
            parse_map("inverse(map=affine(matrix=[[1,0],[0,0]]))")

    def test_affine_inverse_is_an_affine_node(self):
        m = M.affine([[2.0, 1.0], [0.0, 1.0]], [0.5, -0.5])
        inv = m.inverse()
        assert isinstance(inv, M.AffineMap)
        assert np.array_equal(inv.offset, -(inv.matrix @ m.offset))
        assert inv.lambda_claimed == m.lambda_claimed

    def test_pl_inverse_reuses_the_constant(self, monkeypatch):
        sweeps = []
        svd = bilip.pl.largest_singular_values
        monkeypatch.setattr(bilip.pl, "largest_singular_values",
                            lambda mats: sweeps.append(len(mats)) or svd(mats))
        m = M.pl_homeomorphism(pl_twist_example(2, 4, 0.3))
        inv = m.inverse()
        assert inv.inverse().lambda_claimed == m.lambda_claimed
        M.evaluate_inverse_points(m, [[0.1, 0.2]])
        assert sweeps == [2 * 32]  # the 32 differentials and their inverses, once
        assert "inverted" not in map_to_text(m)
        assert map_to_text(inv).endswith(",inverted=true)")
        assert not inv.inverse().inverted

    def test_listed_inverse_inverts_only_the_disks_holding_rows(self, monkeypatch):
        twists = [M.make_twist_disk_map(dim=2, amplitude=a) for a in (0.3, 0.5, 0.7)]
        m = M.translated_replication((twists + [None]) * 250)
        pts = np.random.default_rng(3).uniform([-1.0, -0.5], [11.0, 0.5], size=(500, 2))
        expected = M.evaluate_points(m.inverse(), pts)
        inverted = []
        invert = M.TwistDiskMap.inverse
        monkeypatch.setattr(M.TwistDiskMap, "inverse",
                            lambda g: inverted.append(g) or invert(g))
        assert np.array_equal(M.evaluate_inverse_points(m, pts), expected)
        # disks 0..5 hold rows; disk 3 is the identity
        assert inverted == [twists[0], twists[1], twists[2], twists[0], twists[1]]

    def test_latitude_newton_is_batch_independent(self):
        # every row takes the same fixed Halley steps, whatever its batch
        phi = M.make_latitude_sphere_map(0.9, dim=3).inverse()
        u = np.random.default_rng(5).normal(size=(20_000, 3))
        u /= np.linalg.norm(u, axis=1)[:, None]
        batch = phi.apply(u)
        one = np.vstack([phi.apply(u[i : i + 1]) for i in range(500)])
        assert np.array_equal(one, batch[:500])


def _layout_nodes():
    """Every zoo entry, and one node of each constructor in n = 1 to 5
    (affine alone in n = 1, PL in n = 2 and 3), with their inverses."""
    nodes = list(map_zoo())
    for dim in range(1, 6):
        turn = rotation_matrix((0, 1), 0.7, dim) if dim > 1 else np.eye(1)
        nodes.append(M.affine(turn @ np.diag(np.linspace(0.5, 2.0, dim)),
                              np.linspace(-1.0, 1.0, dim)))
        if dim == 1:
            continue
        twist = M.make_twist_disk_map(dim=dim, amplitude=0.6)
        nodes += [M.radial_extension(M.make_latitude_sphere_map(0.6, dim=dim)),
                  M.disk_replication(twist), M.translated_replication(uniform=twist),
                  M.spiral_map(M.LogSpiralProfile(1.0, (0, 1), dim)),
                  M.product_map(M.identity(1), M.affine(np.eye(dim - 1) * 2.0)),
                  M.compose(M.disk_replication(twist),
                            M.spiral_map(M.LogSpiralProfile(-0.5, (0, 1), dim)))]
        if dim in (2, 3):
            nodes.append(M.pl_homeomorphism(pl_twist_example(dim, 4 if dim == 2 else 2,
                                                             0.2)))
    return [node for m in nodes for node in (m, m.inverse())]


LAYOUT_NODES = _layout_nodes()


class TestMemoryLayout:
    """A node's bits do not depend on the memory order of its rows: a
    column-major batch, as the pair stream yields, evaluates as its
    C-ordered copy does, in batches of many rows and of one."""

    @pytest.mark.parametrize("idx", range(len(LAYOUT_NODES)))
    def test_column_major_rows_evaluate_as_c_ordered(self, idx):
        m = LAYOUT_NODES[idx]
        rng = np.random.default_rng(idx)
        pts = rng.normal(size=(SCALES.size, m.dim)) * SCALES[:, None]
        for rows in (pts, pts[:1], pts[-1:]):
            cols = np.asfortranarray(rows)
            assert rows.flags.c_contiguous and cols.flags.f_contiguous
            assert np.array_equal(m._eval(cols), m._eval(rows))
            assert np.array_equal(m._displacement(cols), m._displacement(rows))
