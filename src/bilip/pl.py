"""Piecewise-linear homeomorphisms on Kuhn-triangulated boxes.

The standard subdivision splits every grid cube into n! simplices, one
per coordinate ordering. A PL map stores one image point per lattice
vertex and is affine on each simplex, so its differential is constant
per simplex and the global PL norm sup ||T_sigma f|| is an exact finite
maximum rather than an estimate.
"""

import itertools

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
        import math

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
    Internal caches (differentials, their norms, inverse lookup buckets)
    are built lazily and never mutated afterwards.
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

def _build_buckets(f):
    """CSR index of the image simplices by grid cube.

    The candidates of flat cube c are ``simplices[indptr[c]:indptr[c + 1]]``,
    in ascending simplex order: every simplex whose image bounding box,
    padded by 1e-9 cells, touches c. The image of an orientation-positive
    boundary-fixed map is the box itself, so the source grid doubles as a
    spatial index for inverse queries. Returns (indptr, simplices).
    """
    tri = f.triangulation
    n, res = tri.dim, tri.resolution
    img = f.vertex_images[tri.simplices]  # (S, n+1, n)
    pad = 1e-9 * tri.cell
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


def _inverse_index(f):
    """Cached bucket arrays, inverse image-edge matrices, first image
    vertices and source vertices of every simplex."""
    if f._inverse is None:
        tri = f.triangulation
        img = f.vertex_images[tri.simplices]
        e_inv = np.linalg.inv((img[:, 1:, :] - img[:, :1, :]).transpose(0, 2, 1))
        f._inverse = (*_build_buckets(f), e_inv, img[:, 0], tri.vertices[tri.simplices])
    return f._inverse


def _first_containing(index, y, cube):
    """Pull each row of ``y`` back through the first candidate of its
    flat ``cube`` whose barycentric weights are all >= -1e-9.

    Step k tests every unresolved row against the k-th candidate of its
    cube. Returns (x, found); x is undefined where found is False.
    """
    indptr, simplices, e_inv, first, src = index
    start = indptr[cube]
    count = indptr[cube + 1] - start
    x = np.empty_like(y)
    found = np.zeros(y.shape[0], dtype=bool)
    for k in range(int(count.max(initial=0))):
        rows = np.flatnonzero(~found & (count > k))
        if rows.size == 0:  # every row is resolved or out of candidates
            break
        s = simplices[start[rows] + k]
        w_rest = np.einsum("pij,pj->pi", e_inv[s], y[rows] - first[s])
        w = np.concatenate([1.0 - w_rest.sum(axis=1, keepdims=True), w_rest], axis=1)
        ok = (w >= -1e-9).all(axis=1)
        x[rows[ok]] = np.einsum("pk,pkd->pd", w[ok], src[s[ok]])
        found[rows[ok]] = True
    return x, found


def pl_eval_inverse(f, pts):
    """Evaluate the inverse PL map at row points.

    Requires a positively oriented map. Each query point is matched to
    the first image simplex of its grid cube that contains it (via
    barycentric coordinates in the image) and pulled back with the same
    weights. Points that no simplex of their own cube contains are
    tried against the simplices of the 3^n neighbouring cubes. Outside
    the box a boundary-fixed map is the identity; on any other map the
    edge cubes list the simplices whose images reach past the box.
    """
    tri = f.triangulation
    pts = as_points(pts, tri.dim)
    if np.any(f.determinants() <= 0.0):
        raise NotHomeomorphismError("map is not orientation-positive")
    index = _inverse_index(f)
    outside = _outside_mask(tri, pts) if f.boundary_fixed else np.zeros(len(pts), bool)
    out = pts.copy()
    inside = np.flatnonzero(~outside)
    y = pts[inside]
    u = np.clip((y - tri.lo) / tri.cell, 0.0, float(tri.resolution))
    cube = np.minimum(u.astype(np.int64), tri.resolution - 1)
    cubes = (tri.resolution,) * tri.dim
    x, found = _first_containing(index, y, np.ravel_multi_index(tuple(cube.T), cubes))
    for delta in itertools.product((-1, 0, 1), repeat=tri.dim):
        pending = np.flatnonzero(~found)
        if pending.size == 0:
            break
        near = np.clip(cube[pending] + delta, 0, tri.resolution - 1)
        x[pending], found[pending] = _first_containing(
            index, y[pending], np.ravel_multi_index(tuple(near.T), cubes))
    if not found.all():
        raise OutOfDomainError(f"no image simplex contains point {y[~found][0]!r}")
    out[inside] = x
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
