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
