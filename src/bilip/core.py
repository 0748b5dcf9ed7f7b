"""Dense small-dimension linear algebra and intrinsic sphere metrics.

Everything here works on plain float64 numpy arrays and is pure: no
global state, safe to call concurrently. Intended for dimensions up to
about 16; there is no sparse or large-scale path.

The row kernels (``row_dots``, ``row_norms``, ``row_broadcast``,
``row_shift``) serve the (N, n) chunks of the pair streams, where n is
small and N large. They work column by column, since numpy's reductions
and broadcasts along a 2- or 3-wide axis run their inner loop once per
row, and they reuse the arrays they allocate, since glibc returns a
freed multi-megabyte temporary to the system and the next chunk faults
its pages in again. Both change no bit of any result.
"""

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidMatrixError,
    InvalidPlaneError,
    InvalidPointError,
    OffSphereError,
)

# Tolerance for accepting a point as lying on the unit sphere.
SPHERE_TOL = 1e-9


def as_vector(v, dim=None):
    """Validate and return a finite 1-d float64 vector."""
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise InvalidPointError(f"expected a 1-d vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidPointError("vector has non-finite entries")
    if dim is not None and arr.shape[0] != dim:
        raise DimensionMismatchError(f"expected dimension {dim}, got {arr.shape[0]}")
    return arr


def as_points(pts, dim=None):
    """Validate and return a finite (N, n) float64 array of row points."""
    arr = np.asarray(pts, dtype=float)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] == 0:
        raise InvalidPointError(f"expected an (N, n) array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidPointError("points contain non-finite entries")
    if dim is not None and arr.shape[1] != dim:
        raise DimensionMismatchError(f"expected dimension {dim}, got {arr.shape[1]}")
    return arr


def as_matrix(m, dim=None):
    """Validate and return a finite square float64 matrix."""
    arr = np.asarray(m, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
        raise InvalidMatrixError(f"expected a square matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidMatrixError("matrix has non-finite entries")
    if dim is not None and arr.shape[0] != dim:
        raise DimensionMismatchError(f"expected dimension {dim}, got {arr.shape[0]}")
    return arr


# =====================================================================
# Row kernels
# =====================================================================

# numpy's pairwise summation adds fewer than this many terms in order
_PAIRWISE_BLOCK = 8


def row_dots(a, b):
    """Dot product of each row of an (N, n) array ``a`` with ``b``, one
    (n,) row or an (N, n) array: ``np.sum(a * b, axis=1)``, bit for bit.

    With fewer than 8 columns numpy's reduction adds in column order, so
    the columns are summed in order here, several times faster than a
    reduction along a 2- or 3-wide axis; from 8 columns on (and with
    none) numpy reduces.
    """
    n = a.shape[1]
    if n == 0 or n >= _PAIRWISE_BLOCK:
        return np.sum(a * b, axis=1)
    acc = a[:, 0] * b[..., 0]
    for i in range(1, n):
        acc += a[:, i] * b[..., i]
    acc += 0.0  # numpy's sum starts from +0.0: a sum of -0.0 terms is +0.0
    return acc


def row_norms(v):
    """Euclidean norm of each row: ``np.linalg.norm(v, axis=1)``, bit
    for bit (see ``row_dots``)."""
    acc = row_dots(v, v)
    return np.sqrt(acc, out=acc)  # row_dots returns a fresh array


def row_broadcast(op, v, s, out=None):
    """``op(v, s[:, None])`` for a binary ufunc ``op``, an (N, n) array
    or (n,) row ``v`` and an (N,) column ``s``, bit for bit, into
    ``out`` when given (an (N, n) array, which may be ``v``) or else a
    fresh array.

    Against ``s[:, None]`` numpy runs its inner loop once per row over
    only n elements; with 2 or 3 columns that costs 3 to 5 times one
    pass per column over all N rows, which is what this does. ``out``
    lets a caller write into an array it allocated itself: a chunk's
    temporaries are a few MB, and glibc hands freed blocks of that size
    back to the system, so every fresh one faults its pages in again.
    Being elementwise, writing in place or by column changes no bit.
    """
    n = v.shape[-1]
    if out is None:
        out = np.empty((s.shape[0], n), dtype=np.result_type(v, s))
    for i in range(n):
        op(v[..., i], s, out=out[:, i])
    return out


def row_shift(op, rows, s, w):
    """``op(rows, s[:, None] * w)`` for a binary ufunc ``op``, an (N, n)
    array ``rows``, an (N,) column ``s`` and an (n,) vector ``w``, bit
    for bit, written into ``rows`` and returned: each row moved by its
    own multiple of one vector. One column at a time, through one (N,)
    buffer, for the reasons given in ``row_broadcast``.
    """
    term = np.empty_like(s, dtype=np.result_type(s, w))
    for i, wi in enumerate(w):
        np.multiply(s, wi, out=term)
        op(rows[:, i], term, out=rows[:, i])
    return rows


# =====================================================================
# Matrix norms
# =====================================================================

def largest_singular_values(mats):
    """Largest singular value of each matrix in a stacked (S, n, n) array.

    One batched LAPACK SVD (singular values only): accurate to a few
    units in the last place, with no convergence tolerance, over the
    whole float64 range (diag(1e307, 1) gives 1e307, where the Gram
    matrix M^T M would overflow).
    """
    mats = np.asarray(mats, dtype=float)
    if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
        raise InvalidMatrixError(f"expected (S, n, n) stack, got {mats.shape}")
    return np.linalg.svd(mats, compute_uv=False)[:, 0]


def operator_norm(m):
    """Operator (spectral) norm: the largest singular value of ``m``."""
    mat = as_matrix(m)
    return float(largest_singular_values(mat[None])[0])


def frobenius_norm(m):
    """Square root of the sum of squared entries."""
    mat = as_matrix(m)
    return float(np.sqrt(np.sum(mat * mat)))


# =====================================================================
# Sphere metrics
# =====================================================================

def _to_unit(x, what):
    nrm = np.linalg.norm(x)
    if abs(nrm - 1.0) > SPHERE_TOL:
        raise OffSphereError(f"{what} has norm {nrm!r}, not within {SPHERE_TOL} of 1")
    return x / nrm


def sphere_geodesic(x, y):
    """Great-circle distance between two unit vectors, in [0, pi].

    Inputs must lie within 1e-9 of the unit sphere; they are
    renormalized internally. The inner product is clamped to [-1, 1]
    before arccos so that coincident and antipodal points are exact.
    """
    xv = as_vector(x)
    yv = as_vector(y, dim=xv.shape[0])
    xu = _to_unit(xv, "x")
    yu = _to_unit(yv, "y")
    c = float(np.clip(np.dot(xu, yu), -1.0, 1.0))
    return float(np.arccos(c))


# =====================================================================
# Rotations
# =====================================================================

def check_plane(plane, dim):
    """Validate a coordinate plane given as a pair of 0-based axes i < j."""
    try:
        i, j = int(plane[0]), int(plane[1])
    except (TypeError, ValueError, IndexError):
        raise InvalidPlaneError(f"plane must be an index pair, got {plane!r}")
    if not (0 <= i < j < dim):
        raise InvalidPlaneError(
            f"plane ({i}, {j}) invalid for dimension {dim}: need 0 <= i < j < n"
        )
    return i, j


def rotation_matrix(plane, angle, dim):
    """Rotation of R^dim acting in one coordinate plane.

    The result is the identity except for the 2x2 rotation block in the
    (0-based) coordinate pair ``plane``. Axis ``i`` turns toward axis
    ``j`` for positive angles.
    """
    i, j = check_plane(plane, dim)
    if not np.isfinite(angle):
        raise InvalidPlaneError("rotation angle must be finite")
    r = np.eye(dim)
    c, s = np.cos(angle), np.sin(angle)
    r[i, i] = c
    r[j, j] = c
    r[i, j] = -s
    r[j, i] = s
    return r


def orthogonality_defect(m):
    """Frobenius distance from M^T M to the identity."""
    mat = as_matrix(m)
    return float(np.linalg.norm(mat.T @ mat - np.eye(mat.shape[0])))
