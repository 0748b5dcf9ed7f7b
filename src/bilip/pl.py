"""Piecewise-linear homeomorphisms on Kuhn-triangulated boxes.

The standard subdivision splits every grid cube into n! simplices, one
per coordinate ordering. A PL map stores one image point per lattice
vertex and is affine on each simplex, so its differential is constant
per simplex and the global PL norm sup ||T_sigma f|| is an exact finite
maximum rather than an estimate.
"""

import functools
import itertools
import math
from typing import NamedTuple

import numpy as np

from .core import as_points, largest_singular_values
from .errors import (
    DegenerateSimplexError,
    DisplacementTooLargeError,
    EmptyGridError,
    InvalidPointError,
    NotHomeomorphismError,
    OutOfDomainError,
    SupportViolationError,
)

_MAX_DIM = 6
_MAX_RESOLUTION = 64
_BARY_TOL = 1e-12
_DEGENERATE_TOL = 1e-12
_CONTAIN_TOL = 1e-9  # barycentric slack of the inverse's containment test
_WALK_STEPS = 4  # Newton steps of the inverse walk before the search
_BLOCK = 8192  # rows per pl_eval block: a block's column temporaries stay in cache


class Triangulation:
    """Kuhn triangulation of the box [lo, hi]^dim at a given resolution.

    Vertices are the lattice points in C order; each cube contributes
    its dim! path simplices in lexicographic order of the coordinate
    permutation. Instances are immutable after construction.
    """

    def __init__(self, dim, lo, hi, resolution, vertices, simplices):
        self.dim = dim
        self.lo = float(lo)
        self.hi = float(hi)
        self.resolution = int(resolution)
        self.vertices = vertices
        self.simplices = simplices
        self.cell = (self.hi - self.lo) / self.resolution
        self._boundary_mask = None

    @property
    def n_vertices(self):
        return self.vertices.shape[0]

    @property
    def n_simplices(self):
        return self.simplices.shape[0]

    def boundary_vertex_mask(self):
        """Boolean mask of lattice vertices on the box boundary."""
        if self._boundary_mask is None:
            on_face = (np.abs(self.vertices - self.lo) == 0.0) | (
                np.abs(self.vertices - self.hi) == 0.0
            )
            self._boundary_mask = on_face.any(axis=1)
        return self._boundary_mask

    def simplex_volume(self):
        """Volume of each simplex (they are all congruent)."""
        return self.cell ** self.dim / math.factorial(self.dim)


def kuhn_triangulation(dim, box, resolution):
    """Triangulate [box[0], box[1]]^dim into resolution^dim cubes of
    dim! simplices each.

    Parameters
    ----------
    dim : int
        Ambient dimension, at most 6.
    box : (float, float)
        Lower and upper corner value, the same on every axis.
    resolution : int
        Grid cells per axis, between 1 and 64.
    """
    if resolution == 0:
        raise EmptyGridError("resolution 0 gives an empty grid")
    if not (1 <= dim <= _MAX_DIM):
        raise InvalidPointError(f"dim must be in [1, {_MAX_DIM}], got {dim}")
    if not (1 <= resolution <= _MAX_RESOLUTION):
        raise InvalidPointError(
            f"resolution must be in [1, {_MAX_RESOLUTION}], got {resolution}"
        )
    lo, hi = float(box[0]), float(box[1])
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
        raise InvalidPointError(f"box must satisfy lo < hi, got ({lo}, {hi})")

    axes = [np.linspace(lo, hi, resolution + 1) for _ in range(dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    vertices = np.stack(mesh, axis=-1).reshape(-1, dim)

    # Path offsets: for permutation pi, vertex k of the simplex sits at
    # cube_corner + e_{pi(0)} + ... + e_{pi(k-1)}.
    perms = list(itertools.permutations(range(dim)))
    offsets = np.zeros((len(perms), dim + 1, dim), dtype=np.int64)
    for p, perm in enumerate(perms):
        step = np.zeros(dim, dtype=np.int64)
        for k, axis in enumerate(perm):
            step = step.copy()
            step[axis] += 1
            offsets[p, k + 1] = step

    cubes = np.stack(
        np.meshgrid(*[np.arange(resolution)] * dim, indexing="ij"), axis=-1
    ).reshape(-1, dim)
    lattice = cubes[:, None, None, :] + offsets[None, :, :, :]
    lattice = lattice.reshape(-1, dim + 1, dim)
    shape = (resolution + 1,) * dim
    simplices = np.ravel_multi_index(
        tuple(lattice[..., a] for a in range(dim)), shape
    )
    return Triangulation(dim, lo, hi, resolution, vertices, simplices)


class PLMap:
    """Simplex-wise affine map defined by images of the lattice vertices.

    With ``boundary_fixed`` the map is extended by the identity outside
    the box; boundary vertices must then map to themselves exactly.
    Internal caches (differentials, their norms, the inverse's
    per-simplex table and, once a point needs the search, its bucket
    index) are built lazily and never mutated afterwards.
    """

    tag = "plmap"
    fields = (("dim", "triangulation.dim"), ("lo", "triangulation.lo"),
              ("hi", "triangulation.hi"), ("resolution", "triangulation.resolution"),
              ("boundary_fixed", "boundary_fixed"), ("images", "vertex_images"))

    @classmethod
    def from_fields(cls, dim, lo, hi, resolution, boundary_fixed, vertex_images):
        """The map on the Kuhn triangulation of [lo, hi]^dim, built from
        its declared fields in order."""
        return cls(kuhn_triangulation(dim, (lo, hi), resolution), vertex_images,
                   boundary_fixed=boundary_fixed)

    def __init__(self, triangulation, vertex_images, boundary_fixed=True):
        tri = triangulation
        images = np.asarray(vertex_images, dtype=float)
        if images.shape != tri.vertices.shape:
            raise InvalidPointError(
                f"vertex_images shape {images.shape} does not match "
                f"{tri.vertices.shape}"
            )
        if not np.all(np.isfinite(images)):
            raise InvalidPointError("vertex images must be finite")
        if boundary_fixed:
            mask = tri.boundary_vertex_mask()
            if not np.array_equal(images[mask], tri.vertices[mask]):
                raise SupportViolationError(
                    "boundary vertices must map to themselves exactly"
                )
        self.triangulation = tri
        self.vertex_images = images
        self.boundary_fixed = bool(boundary_fixed)
        self._diffs = None
        self._dets = None
        self._norms = None
        self._inverse = None
        self._buckets = None

    @property
    def dim(self):
        return self.triangulation.dim

    def differentials(self):
        """Stacked per-simplex affine differentials, shape (S, n, n)."""
        if self._diffs is None:
            tri = self.triangulation
            src = tri.vertices[tri.simplices]  # (S, n+1, n)
            img = self.vertex_images[tri.simplices]
            e_src = (src[:, 1:, :] - src[:, :1, :]).transpose(0, 2, 1)
            e_img = (img[:, 1:, :] - img[:, :1, :]).transpose(0, 2, 1)
            self._diffs = e_img @ np.linalg.inv(e_src)
        return self._diffs

    def determinants(self):
        if self._dets is None:
            self._dets = np.linalg.det(self.differentials())
        return self._dets

    def norms(self):
        """Operator norms of the differentials (row 0) and of their
        inverses (row 1), shape (2, S): one batched SVD of both stacks.
        Needs every differential invertible."""
        if self._norms is None:
            diffs = self.differentials()
            both = np.concatenate([diffs, np.linalg.inv(diffs)])
            self._norms = largest_singular_values(both).reshape(2, -1)
        return self._norms


def _outside_mask(tri, pts):
    tol = _BARY_TOL * max(1.0, abs(tri.lo), abs(tri.hi))
    return ((pts < tri.lo - tol) | (pts > tri.hi + tol)).any(axis=1)


def _interpolate(f, p):
    """PL images of the in-box rows ``p`` (see ``pl_eval``)."""
    tri = f.triangulation
    n, res = tri.dim, tri.resolution
    stride = n * (res + 1) ** np.arange(n - 1, -1, -1)  # C order, in image entries
    out = np.empty(p.shape)  # C order, whatever the order of p
    for i in range(0, p.shape[0], _BLOCK):
        t = np.zeros((n + 2, min(_BLOCK, p.shape[0] - i)))  # 1, coordinates, 0
        t[0] = 1.0
        np.clip((p[i:i + _BLOCK].T - tri.lo) / tri.cell, 0.0, res, out=t[1:-1])
        cube = np.minimum(np.floor(t[1:-1]), res - 1)
        t[1:-1] -= cube  # the in-cube coordinates, exact, in [0, 1]
        flat = np.empty((n + 1, t.shape[1]), dtype=np.int64)
        flat[0], flat[1:] = stride @ cube, stride[:, None]
        for r in range(n if n > 2 else n - 1):  # odd-even transposition sort;
            ta, tb = t[1 + r % 2:n:2], t[2 + r % 2:n + 1:2]  # n rounds, one for n = 2
            fa, fb = flat[1 + r % 2:n:2], flat[2 + r % 2:n + 1:2]
            step = (fb - fa) * (tb > ta)  # a tie never swaps: the lower axis stays first
            ta[...], tb[...] = np.maximum(ta, tb), np.minimum(ta, tb)
            fa += step
            fb -= step
        for k in range(n):
            flat[k + 1] += flat[k]
        w = t[:-1] - t[1:]
        for d in range(n):
            g = f.vertex_images.ravel()[d:].take(flat)
            g *= w
            out[i:i + _BLOCK, d] = np.add.reduce(g, axis=0, initial=0.0)
    return out


def pl_eval(f, pts):
    """Evaluate a PLMap at row points.

    Points inside the box interpolate the vertex images with the
    barycentric weights of their containing Kuhn simplex. Points
    outside pass through unchanged when ``boundary_fixed``, otherwise
    an out-of-domain error is raised.

    In-box rows go in blocks of ``_BLOCK`` rows, sliced when no row is
    outside, one coordinate column at a time. Adjacent-column comparisons
    sort the in-cube coordinates to s_0 >= ... >= s_{n-1}, a tie keeping
    the lower axis first, with their axes' strides, whose running sums from
    the cube corner index the simplex's vertices. Each output column sums,
    from 0.0 in vertex order, weights 1 - s_0, ..., s_{n-1} times images.
    """
    tri = f.triangulation
    pts = as_points(pts, tri.dim)
    outside = _outside_mask(tri, pts)
    if not outside.any():
        return _interpolate(f, pts)
    if not f.boundary_fixed:
        raise OutOfDomainError("point outside the triangulated box")
    out = pts.copy()
    out[~outside] = _interpolate(f, pts[~outside])
    return out


# =====================================================================
# Inverse evaluation
# =====================================================================

class _InverseTable(NamedTuple):
    """Per-simplex data of the inverse: inverse image-edge matrices
    (S, n, n), first image vertices (S, n), source vertices (S, n+1, n),
    ``reach``, (n+1) * _CONTAIN_TOL * D with D the largest diagonal of an
    image simplex's bounding box, and each barycentric weight's ``margin``
    (S, n+1), 10 ``reach`` times the norm of its gradient in the image:
    a weight above its margin puts the point farther than 10 ``reach``
    from that facet."""

    e_inv: np.ndarray
    first: np.ndarray
    src: np.ndarray
    reach: float
    margin: np.ndarray


def _inverse_table(f):
    """The map's cached ``_InverseTable``."""
    if f._inverse is None:
        tri = f.triangulation
        img = f.vertex_images[tri.simplices]  # (S, n+1, n)
        e_inv = np.linalg.inv((img[:, 1:, :] - img[:, :1, :]).transpose(0, 2, 1))
        grads = np.concatenate([-e_inv.sum(axis=1, keepdims=True), e_inv], axis=1)
        diag = np.sqrt(np.square(img.max(axis=1) - img.min(axis=1)).sum(axis=1)).max()
        reach = (tri.dim + 1) * _CONTAIN_TOL * float(diag)
        f._inverse = _InverseTable(e_inv, img[:, 0], tri.vertices[tri.simplices], reach,
                                   10.0 * reach * np.sqrt(np.square(grads).sum(axis=2)))
    return f._inverse


def _build_buckets(f):
    """CSR index of the image simplices by grid cube.

    The candidates of flat cube c are ``simplices[indptr[c]:indptr[c + 1]]``,
    in ascending simplex order: every simplex whose image bounding box,
    padded by the table's ``reach``, touches c. Every point whose weights
    in a simplex are all >= -_CONTAIN_TOL lies within ``reach`` of that
    simplex, so its own cube lists every simplex that can contain it. The
    image of an orientation-positive boundary-fixed map is the box itself,
    so the source grid doubles as a spatial index for inverse queries.
    Returns (indptr, simplices).
    """
    tri = f.triangulation
    n, res = tri.dim, tri.resolution
    img = f.vertex_images[tri.simplices]  # (S, n+1, n)
    pad = _inverse_table(f).reach
    lo_box = (img.min(axis=1) - tri.lo - pad) / tri.cell
    hi_box = (img.max(axis=1) - tri.lo + pad) / tri.cell
    lo_idx = np.clip(np.floor(lo_box).astype(np.int64), 0, res - 1)
    hi_idx = np.clip(np.floor(hi_box).astype(np.int64), 0, res - 1)
    span = hi_idx - lo_idx + 1
    counts = span.prod(axis=1)
    owner = np.repeat(np.arange(tri.n_simplices), counts)
    # rank of each entry in its simplex's box of cubes, unravelled in C order
    rank = np.arange(owner.size) - np.repeat(np.cumsum(counts) - counts, counts)
    cube = np.zeros(owner.size, dtype=np.int64)
    stride = 1
    for a in reversed(range(n)):
        width = span[owner, a]
        cube += (lo_idx[owner, a] + rank % width) * stride
        rank //= width
        stride *= res
    order = np.argsort(cube, kind="stable")  # by cube, then by simplex
    indptr = np.zeros(res ** n + 1, dtype=np.int64)
    np.cumsum(np.bincount(cube, minlength=res ** n), out=indptr[1:])
    return indptr, owner[order]


def _pull_back(table, y, s):
    """Barycentric weights (N, n+1) of the rows ``y`` in the image of
    simplex ``s`` of each row, and the points with the same weights in
    the source simplices."""
    w_rest = np.einsum("pij,pj->pi", table.e_inv[s], y - table.first[s])
    w = np.concatenate([1.0 - w_rest.sum(axis=1, keepdims=True), w_rest], axis=1)
    return w, np.einsum("pk,pkd->pd", w, table.src[s])


@functools.cache
def _path_ranks(n):
    """Lexicographic rank of each axis order of n axes, indexed by its
    comparison bits: bit i is set when axis b comes before axis a, for
    the i-th pair a < b of ``itertools.combinations``."""
    pairs = list(itertools.combinations(range(n), 2))
    ranks = np.zeros(1 << len(pairs), dtype=np.int64)
    for r, perm in enumerate(itertools.permutations(range(n))):
        ranks[sum(1 << i for i, (a, b) in enumerate(pairs) if perm.index(b) < perm.index(a))] = r
    ranks.flags.writeable = False  # shared by every caller
    return ranks


def _kuhn_locate(tri, x):
    """Index of the Kuhn simplex of each row of ``x`` (clipped to the box).

    The cube is the one ``_interpolate`` picks; in it, the in-cube
    coordinates sorted in descending order give the order of the path's
    axes, a tie keeping the lower axis first, and the simplex is the
    cube's simplex of that order.
    """
    n, res = tri.dim, tri.resolution
    t = np.empty((n, x.shape[0]))  # coordinate columns, in cells
    np.subtract(x.T, tri.lo, out=t)
    t /= tri.cell
    np.clip(t, 0.0, res, out=t)
    cube = np.minimum(np.floor(t), res - 1)
    t -= cube
    code = np.zeros(x.shape[0], dtype=np.int64)
    for i, (a, b) in enumerate(itertools.combinations(range(n), 2)):
        code += (t[b] > t[a]) * (1 << i)
    flat = (res ** np.arange(n - 1, -1, -1)) @ cube
    return flat.astype(np.int64) * math.factorial(n) + _path_ranks(n)[code]


def _walk(tri, table, y):
    """Certified pull-backs of the rows ``y`` of a boundary-fixed map.

    From x = y, each step locates x's Kuhn simplex, takes y's weights w
    in its image and moves x to the point with weights w (a Newton step),
    for at most ``_WALK_STEPS`` steps. A row is certified when every
    weight exceeds its ``margin``, so that it lies farther than 10
    ``reach`` from every facet of the image simplex. The first step runs
    on every row, each later one on the rows left. Returns (x,
    certified); x is undefined where certified is False.
    """
    s = _kuhn_locate(tri, y)
    w, x = _pull_back(table, y, s)
    done = (w > table.margin[s]).all(axis=1)
    rows = np.flatnonzero(~done)
    for _ in range(_WALK_STEPS - 1):
        if rows.size == 0:
            break
        s = _kuhn_locate(tri, x[rows])
        w, x[rows] = _pull_back(table, y[rows], s)
        ok = (w > table.margin[s]).all(axis=1)
        done[rows[ok]] = True
        rows = rows[~ok]
    return x, done


def _first_containing(f, y):
    """Pull each row of ``y`` back through the first simplex listed for
    its grid cube whose barycentric weights are all >= -_CONTAIN_TOL.

    Step k tests every unresolved row against the k-th candidate of its
    cube. Returns (x, found); x is undefined where found is False.
    """
    tri = f.triangulation
    if f._buckets is None:
        f._buckets = _build_buckets(f)
    indptr, simplices = f._buckets
    flat = _kuhn_locate(tri, y) // math.factorial(tri.dim)  # each row's grid cube
    start = indptr[flat]
    count = indptr[flat + 1] - start
    table = _inverse_table(f)
    x = np.empty_like(y)
    found = np.zeros(y.shape[0], dtype=bool)
    for k in range(int(count.max(initial=0))):
        rows = np.flatnonzero(~found & (count > k))
        if rows.size == 0:  # every row is resolved or out of candidates
            break
        w, back = _pull_back(table, y[rows], simplices[start[rows] + k])
        ok = (w >= -_CONTAIN_TOL).all(axis=1)
        x[rows[ok]] = back[ok]
        found[rows[ok]] = True
    return x, found


def _pull_back_rows(f, y):
    """Inverse images of the rows ``y``: the walk's where it certifies a
    row (on a boundary-fixed map), the search's elsewhere."""
    if f.boundary_fixed:
        x, found = _walk(f.triangulation, _inverse_table(f), y)
    else:
        x, found = np.empty_like(y), np.zeros(y.shape[0], dtype=bool)
    rest = np.flatnonzero(~found)
    if rest.size:
        x[rest], hit = _first_containing(f, y[rest])
        if not hit.all():
            raise OutOfDomainError(f"no image simplex contains point {y[rest[~hit][0]]!r}")
    return x


def pl_eval_inverse(f, pts):
    """Evaluate the inverse PL map at row points.

    Requires a positively oriented map. Outside the box a boundary-fixed
    map is the identity; on any other map the edge cubes list the
    simplices whose images reach past the box.

    Each point y is pulled back through the first image simplex, in
    simplex order among those its grid cube lists, whose barycentric
    weights are all >= -1e-9, with those weights. On a boundary-fixed map
    a walk (``_walk``) finds that simplex first: Newton steps over the
    Kuhn simplices from x = y, at most four. It certifies a row lying
    more than 10 (n+1) 1e-9 D from every facet of its image simplex,
    where D is the largest diagonal of an image simplex's bounding box.
    Such a map is injective, and every point that passes the 1e-9 test of
    a simplex lies within (n+1) 1e-9 D of it, so no other simplex passes
    it at a certified row and the walk's weights give the same bits as
    the search. The rows the walk leaves, and every row of a free-boundary
    map, go to the search over the cube's candidates (``_first_containing``),
    whose index is built on first use.
    """
    tri = f.triangulation
    pts = as_points(pts, tri.dim)
    if np.any(f.determinants() <= 0.0):
        raise NotHomeomorphismError("map is not orientation-positive")
    if not f.boundary_fixed:
        return _pull_back_rows(f, pts)
    outside = _outside_mask(tri, pts)
    if not outside.any():
        return _pull_back_rows(f, pts)
    out = pts.copy()
    out[~outside] = _pull_back_rows(f, pts[~outside])
    return out


# =====================================================================
# Norms and validation
# =====================================================================

def pl_differential_norm(f, with_argmax=False):
    """sup over simplices of the operator norm of the affine differential.

    Exact to the rounding of one batched SVD (``PLMap.norms``). With
    ``with_argmax`` also returns the index of the realizing simplex.
    """
    if np.any(np.abs(f.determinants()) < _DEGENERATE_TOL):
        raise DegenerateSimplexError("triangulation image has a degenerate simplex")
    norms = f.norms()[0]
    k = int(np.argmax(norms))
    return (float(norms[k]), k) if with_argmax else float(norms[k])


def pl_bilip_constant(f):
    """max(sup ||T_sigma f||, sup ||T_sigma f^-1||); a valid global
    bi-Lipschitz constant on the (convex) box, from the map's cached
    ``norms``."""
    dets = f.determinants()
    if np.any(dets <= 0.0):
        raise NotHomeomorphismError("differential determinant <= 0 somewhere")
    if np.any(np.abs(dets) < _DEGENERATE_TOL):
        raise DegenerateSimplexError("degenerate simplex in PL map")
    return float(f.norms().max())


class PLValidation:
    """Outcome of the homeomorphism checks for a PLMap."""

    def __init__(self, ok, n_simplices, min_det, negative, degenerate):
        self.ok = ok
        self.n_simplices = n_simplices
        self.min_det = min_det
        self.negative_simplices = negative
        self.degenerate_simplices = degenerate

    def __repr__(self):
        return (
            f"PLValidation(ok={self.ok}, n_simplices={self.n_simplices}, "
            f"min_det={self.min_det:.3e}, "
            f"negative={len(self.negative_simplices)}, "
            f"degenerate={len(self.degenerate_simplices)})"
        )


def pl_validate(f):
    """Report determinant signs and degeneracies; ``PLMap`` already
    refuses a boundary-fixed map that moves a boundary vertex.

    Never raises; failures are carried in the report.
    """
    dets = f.determinants()
    negative = np.flatnonzero(dets <= 0.0)
    degenerate = np.flatnonzero(np.abs(dets) < _DEGENERATE_TOL)
    ok = negative.size == 0 and degenerate.size == 0
    return PLValidation(ok, f.triangulation.n_simplices, float(dets.min()),
                        negative, degenerate)


# =====================================================================
# Builtin generators
# =====================================================================

def identity_plmap(triangulation):
    return PLMap(triangulation, triangulation.vertices.copy(), boundary_fixed=True)


def pl_twist_example(dim, resolution, displacement):
    """Compactly supported PL twist on the box [-1, 1]^dim.

    Interior lattice vertices rotate in the (0, 1) coordinate plane by
    ``displacement`` scaled by a weight that vanishes on the boundary,
    so the boundary is fixed exactly. Raises if ``dim`` < 2 or if the
    displacement flips any simplex orientation.
    """
    from .core import check_plane

    i, j = check_plane((0, 1), dim)
    tri = kuhn_triangulation(dim, (-1.0, 1.0), resolution)
    v = tri.vertices
    weight = np.prod(1.0 - v * v, axis=1)
    angle = displacement * weight
    c, s = np.cos(angle), np.sin(angle)
    images = v.copy()
    images[:, i] = c * v[:, i] - s * v[:, j]
    images[:, j] = s * v[:, i] + c * v[:, j]
    # weight 0 must mean "fixed exactly", not "rotated by angle 0.0"
    fixed = weight == 0.0
    images[fixed] = v[fixed]
    f = PLMap(tri, images, boundary_fixed=True)
    if np.any(f.determinants() <= 0.0):
        raise DisplacementTooLargeError(
            f"displacement {displacement} flips a simplex; use a smaller value"
        )
    return f
