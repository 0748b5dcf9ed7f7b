"""Dense small-dimension linear algebra and intrinsic sphere metrics.

Everything here works on plain float64 numpy arrays and is pure: no
global state, safe to call concurrently. Intended for dimensions up to
about 16; there is no sparse or large-scale path.
"""

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidMatrixError,
    InvalidPlaneError,
    InvalidPointError,
    OffSphereError,
)

# Convergence parameters for the singular-value iteration.
_SV_RTOL = 1e-12
_SV_MAX_ITER = 10_000

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
# Matrix norms
# =====================================================================

def _primary_starts(n):
    """Two fixed start vectors; a single start can sit exactly on a
    sub-dominant eigenvector of a symmetric matrix, so estimates from
    both are combined by max."""
    return [np.ones(n), 1.0 + np.arange(n, dtype=float)]


def _canonical_starts(n):
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        yield e


def _power_iteration(grams, start, rtol, max_iter):
    """Largest eigenvalue of each PSD matrix in ``grams`` (S, n, n).

    Returns (eigenvalues, resolved) where ``resolved`` is False for
    matrices whose iterate collapsed to zero (start vector orthogonal
    to the dominant eigenspace); those need a different start.
    """
    s, n = grams.shape[0], grams.shape[-1]
    x = np.broadcast_to(start / np.linalg.norm(start), (s, n)).copy()
    lam = np.zeros(s)
    collapsed = np.zeros(s, dtype=bool)
    active = np.ones(s, dtype=bool)
    for _ in range(max_iter):
        y = np.einsum("sij,sj->si", grams[active], x[active])
        ynorm = np.linalg.norm(y, axis=1)
        dead = ynorm == 0.0
        new_lam = ynorm
        idx = np.flatnonzero(active)
        done = np.abs(new_lam - lam[idx]) <= rtol * np.maximum(new_lam, 1e-300)
        lam[idx] = new_lam
        collapsed[idx[dead]] = True
        safe = ~dead
        x[idx[safe]] = y[safe] / ynorm[safe, None]
        active[idx[done | dead]] = False
        if not active.any():
            break
    return lam, ~collapsed


def largest_singular_values(mats):
    """Largest singular value of each matrix in a stacked (S, n, n) array.

    Power iteration on M^T M with a deterministic all-ones start,
    relative-change threshold 1e-12 and a hard cap of 10^4 iterations.
    If the start is (exactly) orthogonal to the dominant singular
    direction the iterate collapses; a fixed fallback sequence of start
    vectors spanning R^n then resolves the remaining matrices, so the
    result is still deterministic.
    """
    mats = np.asarray(mats, dtype=float)
    if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
        raise InvalidMatrixError(f"expected (S, n, n) stack, got {mats.shape}")
    s, n = mats.shape[0], mats.shape[-1]
    grams = np.einsum("ski,skj->sij", mats, mats)
    out = np.zeros(s)
    nonzero = np.abs(grams).max(axis=(1, 2)) > 0.0  # zero matrices stay 0
    idx = np.flatnonzero(nonzero)
    if idx.size:
        for start in _primary_starts(n):
            lam, ok = _power_iteration(grams[idx], start, _SV_RTOL, _SV_MAX_ITER)
            out[idx] = np.maximum(out[idx], np.where(ok, lam, 0.0))
        for start in _canonical_starts(n):
            pending = np.flatnonzero(nonzero & (out == 0.0))
            if pending.size == 0:
                break
            lam, ok = _power_iteration(grams[pending], start, _SV_RTOL, _SV_MAX_ITER)
            out[pending] = np.maximum(out[pending], np.where(ok, lam, 0.0))
    return np.sqrt(out)


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
