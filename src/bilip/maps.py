"""A closed algebra of exactly evaluable self-maps of R^n.

Map expressions are immutable trees. Every node evaluates pointwise on
(N, n) row arrays with no state, so evaluation is pure and can run from
many threads at once. A node never writes into the rows it is given or
into an array another node returned to it; to keep a chunk's
temporaries few, it writes in place only into arrays it allocated
itself, and it broadcasts per-row scalars over columns one column at a
time (``core.row_broadcast``, ``core.row_shift``). Each constructor
records the bi-Lipschitz constant its construction rule promises (when
one is known) as ``lambda_claimed``; estimators treat those claims as
hypotheses to falsify, never as trusted facts.

Besides the plain image ``f(x)``, nodes expose the displacement field
``f(x) - x`` computed at the construction's own scale. For maps that
act on translated and dilated disks the naive difference of absolute
coordinates loses all precision once the disk center dwarfs the disk
radius; the displacement form is the same quantity rearranged exactly,
and drift measurements rely on it.

Node protocol. Nodes come in four families, each rooted in a base
class: sphere maps (``SphereMap``) and disk maps (``DiskMap``) map rows
with ``apply``; rotation profiles (``SpiralProfile``) turn rows with
``rotate``; map expressions (``MapExpr``) evaluate through ``_eval`` and
``_displacement``, and also answer ``apply``. In all four families an
inverse is a node: ``inverse()`` builds one of the node's own family
from the inverses of its parts, and ``_eval_inverse`` evaluates that
node, except in the replication nodes, which invert only the disk maps
of the disks holding rows. The three compositions share one
constructor, one right-to-left ``apply`` and one ``inverse``
(``_Composition``); the two replication nodes share one per-disk
transport (``_Replication``). Each replication family places its disks
by one vectorised similarity, ``_disk(j)`` (centre offset along e1 and
scale per row), which the transport, the locators and the samplers all
read, and the transport applies each distinct disk map once per call.

Every node class also declares how it is written: ``tag``, its
constructor name in the canonical map text, and ``fields``, ordered
``(keyword, attribute)`` pairs that follow its constructor's parameters
(a dotted attribute reads through a sub-object). ``bilip.mapformat``
writes and parses every node from these declarations alone, so a new
constructor is one class. A field whose value is None is left out of
the text and reads back as the constructor's default. A class whose
constructor takes other parameters supplies a ``from_fields``
classmethod that does (``pl.PLMap``).
"""

import copy

import numpy as np

from . import pl as plmod
from .core import (
    SPHERE_TOL,
    as_matrix,
    as_points,
    as_vector,
    check_plane,
    largest_singular_values,
    orthogonality_defect,
    rotation_matrix,
    row_broadcast,
    row_dots,
    row_norms,
    row_shift,
)
from .errors import (
    DimensionMismatchError,
    InvalidPointError,
    MonotonicityError,
    NotInvertibleError,
    OffSphereError,
    SupportViolationError,
)
from .profiles import CubicProfile, twist_angle_profile

_MAX_TRANSLATED_MAPS = 10 ** 6
_MAX_FINITE_DISK = 511  # 4^511 = 2^1022; the centre of disk 512 overflows
_MAX_TRANSLATED_DISK = 2.0 ** 62  # the nearest centre index of every |x1| < 2^63


def unit_axis(dim, axis=0):
    e = np.zeros(dim)
    e[axis] = 1.0
    return e


def _row_products(pts, matrix):
    """``pts @ matrix.T``, a single row as the first of two: numpy hands
    one row to another BLAS kernel than a batch, which rounds otherwise,
    and a row's bits must not depend on its batch."""
    if pts.shape[0] == 1:
        return (np.repeat(pts, 2, axis=0) @ matrix.T)[:1]
    return pts @ matrix.T


def _rows_where(mask):
    """A row mask as an index: a slice when it holds every row, so that
    gathers and scatters through it are views, not copies."""
    return slice(None) if mask.all() else mask


def _rotate_columns(out, i, j, cos_a, sin_a):
    """Rotate coordinate columns (i, j) in place by per-row angles."""
    xi, xj = out[:, i], out[:, j]
    out[:, i], out[:, j] = cos_a * xi - sin_a * xj, sin_a * xi + cos_a * xj


class _Composition:
    """maps[0] o maps[1] o ... (rightmost applied first), for factors of
    one family and one dimension; the claim is the product of the
    factors' claims, or None when any factor has none."""

    fields = (("maps", "maps"),)

    def __init__(self, maps):
        maps = list(maps)
        if not maps:
            raise InvalidPointError("need at least one map")
        dims = {m.dim for m in maps}
        if len(dims) != 1:
            raise DimensionMismatchError(f"mixed dimensions {dims}")
        self.maps = maps
        self.dim = maps[0].dim
        claims = [m.lambda_claimed for m in maps]
        self.lambda_claimed = (
            float(np.prod(claims)) if all(c is not None for c in claims) else None
        )

    def apply(self, pts):
        for m in reversed(self.maps):
            pts = m.apply(pts)
        return pts

    def inverse(self):
        inv = type(self)([m.inverse() for m in reversed(self.maps)])
        inv.lambda_claimed = self.lambda_claimed  # not the product in reverse order
        return inv


# =====================================================================
# Sphere self-maps
# =====================================================================

class SphereMap:
    """Bi-Lipschitz self-map of the unit sphere S^{n-1} in R^n.

    ``apply`` takes rows that are already unit vectors and returns unit
    rows; outputs are renormalized, and an output drifting farther than
    1e-9 from the sphere is an error rather than silently rescaled
    garbage. ``lambda_claimed`` is a declared chordal-metric
    bi-Lipschitz constant recorded for falsification testing.
    """

    dim = None
    lambda_claimed = None

    def apply(self, units):
        raise NotImplementedError

    def inverse(self):
        raise NotImplementedError

    @staticmethod
    def _renormalize(out):
        """``out`` with each row divided by its norm, in place: callers
        pass only arrays they allocated."""
        norms = row_norms(out)
        drift = norms - 1.0
        np.abs(drift, out=drift)
        if np.any(drift > SPHERE_TOL):
            raise OffSphereError(
                f"sphere map output drifted {float(drift.max()):.3e} off the sphere")
        return row_broadcast(np.divide, out, norms, out=out)


class OrthogonalSphereMap(SphereMap):
    """Restriction of an orthogonal linear map; an isometry of the sphere."""

    tag = "orthogonal"
    fields = (("matrix", "matrix"),)

    def __init__(self, matrix):
        m = as_matrix(matrix)
        if orthogonality_defect(m) > 1e-9:
            raise OffSphereError("matrix is not orthogonal to 1e-9")
        self.matrix = m
        self.dim = m.shape[0]
        self.lambda_claimed = 1.0

    def apply(self, units):
        return self._renormalize(_row_products(units, self.matrix))

    def inverse(self):
        return OrthogonalSphereMap(self.matrix.T)


class LatitudeSphereMap(SphereMap):
    """Polar-angle reparametrization a -> a + beta*sin(a) about an axis.

    Fixes both poles, slides latitude circles toward one pole. The
    derivative 1 + beta*cos(a) stays in [1-|beta|, 1+|beta|], so the
    angle map is strictly monotone for |beta| <= 0.9, and the claimed
    constant max(1+|beta|, 1/(1-|beta|)) (valid for the chordal metric
    as well, since chordal ratios never exceed geodesic ones) is
    recorded for falsification testing.
    """

    tag = "latitude"
    fields = (("beta", "beta"), ("axis", "axis"))

    def __init__(self, beta, axis):
        if not np.isfinite(beta) or abs(beta) > 0.9:
            raise MonotonicityError(
                f"|beta| must be <= 0.9 to keep the angle map monotone, got {beta}"
            )
        ax = as_vector(axis)
        nrm = np.linalg.norm(ax)
        if nrm == 0.0:
            raise InvalidPointError("axis must be nonzero")
        self.beta = float(beta)
        self.axis = ax  # as given: the inverse and the map text rebuild from it
        self._unit = ax / nrm
        self.dim = ax.shape[0]
        b = abs(self.beta)
        self.lambda_claimed = max(1.0 + b, 1.0 / (1.0 - b)) if b > 0 else 1.0

    def _angle_map_inverse(self, target):
        # Newton on a + beta*sin(a) - t; derivative >= 1 - 0.9 = 0.1. A
        # row stops after the step at which its own |f| < 1e-15, so its
        # bits do not depend on the other rows of its batch.
        a = target.copy()
        rows = np.arange(a.size)
        for _ in range(80):
            ar = a[rows]
            fval = ar + self.beta * np.sin(ar) - target[rows]
            a[rows] = ar - fval / (1.0 + self.beta * np.cos(ar))
            rows = rows[np.abs(fval) >= 1e-15]
            if rows.size == 0:
                break
        return np.clip(a, 0.0, np.pi, out=a)

    def _polar(self, units):
        """(c, s, tang, polar): cos and sin of each row's polar angle
        alpha, its part tangent to the axis (norm s) and the rows at a
        pole, where the map is the identity and s reads 1. All four are
        fresh arrays, which the callers overwrite."""
        # summed per row, so a row's bits do not depend on its batch
        c = row_dots(units, self._unit)
        np.clip(c, -1.0, 1.0, out=c)
        tang = row_broadcast(np.multiply, self._unit, c)  # c times the axis
        np.subtract(units, tang, out=tang)
        s = row_norms(tang)
        polar = s < 1e-12
        s[polar] = 1.0
        return c, s, tang, polar

    def _remap(self, units, cos_h, along, polar):
        """Rows at polar angle h: cos h on the axis plus ``along``, the
        tangent part sin(h) tang / s, which is overwritten with them."""
        row_shift(np.add, along, cos_h, self._unit)
        if polar.any():
            along[polar] = units[polar]
        return self._renormalize(along)

    def apply(self, units):
        # h = alpha + beta s by angle addition from c = cos(alpha) and
        # s = sin(alpha): alpha itself is never formed, so nothing is
        # lost near the poles, where arccos(c) would amplify rounding by
        # 1/s, and only beta s, at most 0.9, goes through the trig
        c, s, tang, polar = self._polar(units)
        # along = (cb + c sb / s) tang and cos h = c cb - s sb, with
        # cb, sb = cos, sin(beta s), formed in place in this order
        sb = self.beta * s
        cb = np.cos(sb)
        np.sin(sb, out=sb)
        scale = c * sb
        scale /= s
        np.add(cb, scale, out=scale)
        along = row_broadcast(np.multiply, tang, scale, out=tang)
        cos_h = np.multiply(c, cb, out=c)
        cos_h -= np.multiply(s, sb, out=s)
        del s, sb, cb, scale  # freed before _remap allocates
        return self._remap(units, cos_h, along, polar)

    def inverse(self):
        return _InverseLatitudeSphereMap(self.beta, self.axis)


class _InverseLatitudeSphereMap(LatitudeSphereMap):
    """Inverse of the latitude map with the same beta and axis; the
    angle map is inverted by Newton's method. Same claim."""

    tag = "latitude_inverse"

    def apply(self, units):
        c, s, tang, polar = self._polar(units)
        # arctan2 keeps the polar angle well conditioned near the poles,
        # where arccos would amplify rounding by 1/sin(alpha)
        h = self._angle_map_inverse(np.arctan2(s, c, out=c))
        along = row_broadcast(np.divide, tang, s, out=tang)
        row_broadcast(np.multiply, along, np.sin(h, out=s), out=along)
        return self._remap(units, np.cos(h, out=h), along, polar)

    def inverse(self):
        return LatitudeSphereMap(self.beta, self.axis)


class ConjugatedSphereMap(SphereMap):
    """R o inner o R^{-1} for an orthogonal R; same constant as inner."""

    tag = "conjugated"
    fields = (("rotation", "rotation"), ("map", "inner"))

    def __init__(self, rotation, inner):
        r = as_matrix(rotation, dim=inner.dim)
        if orthogonality_defect(r) > 1e-9:
            raise OffSphereError("conjugating matrix is not orthogonal to 1e-9")
        self.rotation = r
        self.inner = inner
        self.dim = inner.dim
        self.lambda_claimed = inner.lambda_claimed

    def apply(self, units):
        pulled = self._renormalize(_row_products(units, self.rotation.T))  # R^T x
        return self._renormalize(_row_products(self.inner.apply(pulled), self.rotation))

    def inverse(self):
        return ConjugatedSphereMap(self.rotation, self.inner.inverse())


class ComposedSphereMap(_Composition, SphereMap):
    """Composition maps[0] o maps[1] o ... applied right to left."""

    tag = "sphere_compose"


def make_latitude_sphere_map(beta, axis=None, dim=None):
    """Latitude sphere map about ``axis`` (default: the last coordinate
    axis of R^dim)."""
    if axis is None:
        if dim is None:
            raise InvalidPointError("need an axis or a dimension")
        axis = unit_axis(dim, dim - 1)
    return LatitudeSphereMap(beta, axis)


def compose_sphere_maps(*maps):
    return ComposedSphereMap(maps)


def sphere_apply(phi, x):
    """Apply a sphere map to a single point, validating it is on the
    sphere to 1e-9 (renormalized internally)."""
    xv = as_vector(x, dim=phi.dim)
    nrm = np.linalg.norm(xv)
    if abs(nrm - 1.0) > SPHERE_TOL:
        raise OffSphereError(f"input norm {nrm!r} is not within 1e-9 of 1")
    return phi.apply((xv / nrm)[None, :])[0]


# =====================================================================
# Disk self-maps (identity outside the open unit ball)
# =====================================================================

class DiskMap:
    """Bijection of the closed unit disk fixing its boundary pointwise,
    extended by the identity to all of R^n. Rows with ||x|| >= 1 pass
    through bit-exactly."""

    dim = None
    lambda_claimed = None

    def apply(self, pts):
        raise NotImplementedError

    def inverse(self):
        raise NotImplementedError


class TwistDiskMap(DiskMap):
    """Rotation by a radius-dependent angle in one coordinate plane.

    The angle profile must vanish from radius 1 outward; the claimed
    bi-Lipschitz constant 2*(1 + sup_r |r * theta'(r)|) doubles the
    differential-bound estimate and is meant to be falsification
    tested, not assumed.
    """

    tag = "twist"
    fields = (("profile", "profile"), ("plane", "plane"), ("dim", "dim"))

    def __init__(self, profile, plane, dim):
        if not isinstance(profile, CubicProfile):
            raise InvalidPointError("twist profile must be a CubicProfile")
        if profile.support_end > 1.0 or profile.values[-1] != 0.0:
            raise SupportViolationError(
                "twist angle must vanish at radius 1 (theta(1) = 0)"
            )
        self.profile = profile
        self.plane = check_plane(plane, dim)
        self.dim = dim
        self.lambda_claimed = 2.0 * (1.0 + profile.weighted_derivative_sup())

    def apply(self, pts):
        r = row_norms(pts)
        ang = self.profile(r)
        out = pts.copy()
        active = ang != 0.0
        if active.any():
            active = _rows_where(active)
            i, j = self.plane
            sub = out[active]
            _rotate_columns(sub, i, j, np.cos(ang[active]), np.sin(ang[active]))
            out[active] = sub
        return out

    def inverse(self):
        return TwistDiskMap(-self.profile, self.plane, self.dim)


class PLDiskMap(DiskMap):
    """A boundary-fixed PLMap conjugated by a similarity into the unit
    ball (the box lands inside radius 0.95). Conjugation by a
    similarity preserves the bi-Lipschitz constant, so the claim is the
    exact PL constant of the underlying map. With ``inverted`` the node
    is the inverse map, which has the same constant."""

    tag = "pl_disk"
    fields = (("map", "plmap"), ("inverted", "inverted"))
    _FIT_RADIUS = 0.95

    def __init__(self, plmap, inverted=False):
        if not plmap.boundary_fixed:
            raise SupportViolationError("disk embedding needs a boundary-fixed PLMap")
        tri = plmap.triangulation
        self.plmap = plmap
        self.dim = tri.dim
        half = 0.5 * (tri.hi - tri.lo)
        self.center = 0.5 * (tri.hi + tri.lo)
        self.scale = self._FIT_RADIUS / (np.sqrt(tri.dim) * half)
        self.inverted = bool(inverted)
        self.lambda_claimed = plmod.pl_bilip_constant(plmap)

    def apply(self, pts):
        tri = self.plmap.triangulation
        u = pts / self.scale + self.center
        tol = 0.0  # strict: anything outside the box passes through exactly
        inside = ((u > tri.lo + tol) & (u < tri.hi - tol)).all(axis=1)
        out = pts.copy()
        if inside.any():
            fn = plmod.pl_eval_inverse if self.inverted else plmod.pl_eval
            fu = fn(self.plmap, u[inside])
            out[inside] = (fu - self.center) * self.scale
        return out

    def inverse(self):
        # a copy keeps the claim: the exact constant is a full sweep
        # over the simplices and does not change under inversion
        inv = copy.copy(self)
        inv.inverted = not self.inverted
        return inv


class ComposedDiskMap(_Composition, DiskMap):
    """Composition maps[0] o maps[1] o ... applied right to left."""

    tag = "disk_compose"


def make_twist_disk_map(theta=None, plane=(0, 1), dim=2, amplitude=0.8):
    """Builtin nontrivial disk map: rotate by ``theta(r)`` in a plane.

    Without an explicit profile, a default C^1 profile with the given
    center amplitude is used.
    """
    if theta is None:
        theta = twist_angle_profile(amplitude)
    return TwistDiskMap(theta, plane, dim)


def pl_disk_map(plmap):
    """Scale a boundary-fixed PLMap into the unit ball as a DiskMap."""
    return PLDiskMap(plmap)


def compose_disk_maps(*maps):
    return ComposedDiskMap(maps)


def disk_apply(g, x):
    """Apply a disk map to a single point."""
    return g.apply(as_points(as_vector(x, dim=g.dim)))[0]


# =====================================================================
# Rotation-valued radial profiles t -> SO(n)
# =====================================================================

class SpiralProfile:
    """C^1 curve of rotations with a certified derivative bound:
    every matrix entry satisfies |f'_ij(t)| <= c_bound / t for t > 0."""

    dim = None
    c_bound = None

    def rotate(self, radii, pts):
        raise NotImplementedError

    def inverse(self):
        """The profile t -> f(t)^{-1}."""
        raise NotImplementedError

    def matrix(self, t):
        """The rotation at a single parameter value, for diagnostics."""
        raise NotImplementedError

    def far_field(self):
        """('identity' | 'rotation' | 'oscillating', data) describing the
        behaviour of f(t) for large t; used by drift-witness search."""
        raise NotImplementedError


class ConstantRotationProfile(SpiralProfile):
    """f(t) = A for a fixed A in SO(n); the induced map is linear."""

    tag = "constant_rotation"
    fields = (("matrix", "matrix_value"),)

    def __init__(self, matrix):
        m = as_matrix(matrix)
        if orthogonality_defect(m) > 1e-12:
            raise OffSphereError("rotation matrix is not orthogonal to 1e-12")
        if abs(np.linalg.det(m) - 1.0) > 1e-12:
            raise OffSphereError("matrix must have determinant 1")
        self.matrix_value = m
        self.dim = m.shape[0]
        self.c_bound = 0.0

    def rotate(self, radii, pts):
        return _row_products(pts, self.matrix_value)

    def matrix(self, t):
        return self.matrix_value

    def far_field(self):
        return ("rotation", self.matrix_value)

    def inverse(self):
        return ConstantRotationProfile(self.matrix_value.T)


class _PlaneAngleProfile(SpiralProfile):
    """Shared plumbing for profiles that rotate a single coordinate
    plane by a radius-dependent angle."""

    def angle(self, radii):
        raise NotImplementedError

    def rotate(self, radii, pts):
        ang = self.angle(radii)
        out = pts.copy()
        i, j = self.plane
        _rotate_columns(out, i, j, np.cos(ang), np.sin(ang))
        return out

    def matrix(self, t):
        return rotation_matrix(self.plane, float(self.angle(np.asarray([t]))[0]),
                               self.dim)


class LogSpiralProfile(_PlaneAngleProfile):
    """f(t) = plane rotation by c*ln(t); |d/dt cos(c ln t)| <= |c|/t,
    so c_bound = |c| exactly."""

    tag = "log_spiral"
    fields = (("c", "c"), ("plane", "plane"), ("dim", "dim"))

    def __init__(self, c, plane, dim):
        if not np.isfinite(c):
            raise InvalidPointError("spiral rate must be finite")
        self.c = float(c)
        self.plane = check_plane(plane, dim)
        self.dim = dim
        self.c_bound = abs(self.c)

    def angle(self, radii):
        return self.c * np.log(radii)

    def far_field(self):
        return ("oscillating", self.c)

    def inverse(self):
        return LogSpiralProfile(-self.c, self.plane, self.dim)


class CutoffRotationProfile(_PlaneAngleProfile):
    """Plane rotation by a compactly supported C^1 angle; the identity
    from the end of the support outward, hence quasi-isometrically
    trivial. c_bound = sup |t * theta'(t)| from closed-form extrema."""

    tag = "cutoff_rotation"
    fields = (("angle", "theta"), ("plane", "plane"), ("dim", "dim"))

    def __init__(self, theta, plane, dim):
        if not isinstance(theta, CubicProfile):
            raise InvalidPointError("cutoff angle must be a CubicProfile")
        if theta.values[-1] != 0.0:
            raise SupportViolationError("cutoff angle must vanish at its support end")
        self.theta = theta
        self.plane = check_plane(plane, dim)
        self.dim = dim
        self.c_bound = theta.weighted_derivative_sup()

    def angle(self, radii):
        return self.theta(radii)

    def far_field(self):
        return ("identity", float(self.theta.support_end))

    def inverse(self):
        return CutoffRotationProfile(-self.theta, self.plane, self.dim)


def profile_derivative_check(profile, n_grid=60, fd_step=1e-6):
    """Measured sup over a log grid t in [1e-3, 1e6] of
    t * max_ij |finite-difference f'_ij(t)|.

    For a valid profile this never exceeds c_bound by more than
    rounding; used by the certification tests.
    """
    ts = np.logspace(-3.0, 6.0, n_grid)
    worst = 0.0
    for t in ts:
        h = fd_step * t
        fd = (profile.matrix(t + h) - profile.matrix(t - h)) / (2.0 * h)
        worst = max(worst, t * float(np.abs(fd).max()))
    return worst


# =====================================================================
# Map expressions
# =====================================================================

class MapExpr:
    """Node of an exactly evaluable self-map of R^n.

    Subclasses implement ``_eval`` and ``_displacement`` on (N, n)
    arrays and ``inverse()``; the public functions below validate inputs
    once and dispatch.
    """

    dim = None
    lambda_claimed = None

    def _eval(self, pts):
        raise NotImplementedError

    def _eval_inverse(self, pts):
        return self.inverse()._eval(pts)

    def _displacement(self, pts):
        return self._eval(pts) - pts

    def apply(self, pts):
        """Image of (N, n) rows, unvalidated; the name sphere and disk
        maps use, so that one composition serves all three families."""
        return self._eval(pts)

    def inverse(self):
        raise NotImplementedError

    def __call__(self, pts):
        return evaluate_points(self, pts)


class IdentityMap(MapExpr):
    tag = "identity"
    fields = (("dim", "dim"),)

    def __init__(self, dim):
        if not isinstance(dim, (int, np.integer)) or dim < 1:
            raise InvalidPointError(f"dimension must be an integer >= 1, got {dim!r}")
        self.dim = int(dim)
        self.lambda_claimed = 1.0

    def _eval(self, pts):
        return pts.copy()

    def _displacement(self, pts):
        return np.zeros_like(pts)

    def inverse(self):
        return self


class AffineMap(MapExpr):
    """x -> M x + b."""

    tag = "affine"
    fields = (("matrix", "matrix"), ("offset", "offset"))

    def __init__(self, matrix, offset=None):
        m = as_matrix(matrix)
        self.matrix = m
        self.dim = m.shape[0]
        self.offset = (
            np.zeros(self.dim) if offset is None else as_vector(offset, dim=self.dim)
        )
        self.lambda_claimed = None
        if abs(np.linalg.det(m)) > 0.0:  # then the LU of inv has no zero pivot
            inv = np.linalg.inv(m)
            self.lambda_claimed = float(max(largest_singular_values(np.stack([m, inv]))))

    def _eval(self, pts):
        return _row_products(pts, self.matrix) + self.offset

    def _displacement(self, pts):
        return _row_products(pts, self.matrix - np.eye(self.dim)) + self.offset

    def inverse(self):
        try:
            inv_matrix = np.linalg.inv(self.matrix)
        except np.linalg.LinAlgError as exc:
            raise NotInvertibleError("affine map is singular") from exc
        inv = copy.copy(self)  # the claim is symmetric in M and M^-1
        inv.matrix, inv.offset = inv_matrix, -(inv_matrix @ self.offset)
        return inv


class RadialExtensionMap(MapExpr):
    """Extension of a sphere map by v -> ||v|| * phi(v / ||v||), 0 -> 0.

    Norm preserving by construction. When the sphere map carries a
    claimed constant lambda, the extension claims 1 + lambda.
    """

    tag = "radial_extension"
    fields = (("map", "sphere_map"),)

    def __init__(self, sphere_map):
        self.sphere_map = sphere_map
        self.dim = sphere_map.dim
        lam = sphere_map.lambda_claimed
        self.lambda_claimed = (1.0 + lam) if lam is not None else None

    def _radial(self, pts, displacement=False):
        """||v|| phi(v / ||v||) for nonzero rows v; with ``displacement``
        that minus v, computed at unit scale as ||v|| (phi(u) - u)."""
        r = row_norms(pts)
        nz = r > 0.0
        if nz.all():  # the usual case: the image rows are the whole result
            u = row_broadcast(np.divide, pts, r)
            return self._scaled_image(u, r, displacement)
        out = np.zeros_like(pts) if displacement else pts.copy()
        if nz.any():
            u, rn = pts[nz], r[nz]
            row_broadcast(np.divide, u, rn, out=u)
            out[nz] = self._scaled_image(u, rn, displacement)
        return out

    def _scaled_image(self, u, r, displacement):
        """r phi(u), or r (phi(u) - u), written over the unit rows ``u``."""
        image = self.sphere_map.apply(u)
        if displacement:
            image = np.subtract(image, u, out=u)
        return row_broadcast(np.multiply, image, r, out=u)

    def _eval(self, pts):
        return self._radial(pts)

    def _displacement(self, pts):
        return self._radial(pts, displacement=True)

    def inverse(self):
        return RadialExtensionMap(self.sphere_map.inverse())


class _Replication(MapExpr):
    """Per-disk transport shared by the replication nodes. A subclass
    names the disk holding each row (``_locate``: index or -1), the
    similarity onto disk j (``_disk``: centre along e1 and scale, per
    row) and each disk map with its rows (``_groups``). The similarity
    is applied column by column (``row_broadcast``, ``row_shift`` with
    the axis e1) into arrays made here."""

    def disk_points(self, j, p):
        """The images c e1 + s p of unit-ball rows ``p`` in disks ``j``
        (an integer array): the similarity onto disk j."""
        c, s = self._disk(j)
        return row_shift(np.add, row_broadcast(np.multiply, p, s), c,
                         unit_axis(self.dim))

    def _per_disk(self, pts, inverse=False, displacement=False):
        """Rows of each disk through its disk map (or its inverse) in
        the disk's unit coordinates (x - c e1) / s, one call per disk
        map; other rows pass through. With ``displacement`` the image
        minus the input, computed at the disk's own scale. The gathered
        rows are a copy, which holds each step's result in turn."""
        j = self._locate(pts)
        e1 = unit_axis(self.dim)
        out = np.zeros_like(pts) if displacement else pts.copy()
        for g, rows in self._groups(j):
            if rows.size == 0:
                continue
            if inverse:
                g = g.inverse()
            c, s = self._disk(j[rows])
            local = row_shift(np.subtract, pts[rows], c, e1)
            row_broadcast(np.divide, local, s, out=local)
            moved = g.apply(local)
            if displacement:
                out[rows] = row_broadcast(
                    np.multiply, np.subtract(moved, local, out=local), s, out=local)
            else:
                out[rows] = row_shift(
                    np.add, row_broadcast(np.multiply, moved, s, out=local), c, e1)
        return out

    def _eval(self, pts):
        return self._per_disk(pts)

    def _eval_inverse(self, pts):
        # the inverse node of a listed translated replication inverts
        # every entry; here only the maps of disks holding rows are
        return self._per_disk(pts, inverse=True)

    def _displacement(self, pts):
        return self._per_disk(pts, displacement=True)


class DiskReplicationMap(_Replication):
    """Replicates one disk map on the disjoint disks C_j = D(4^j e1, 2^j).

    Evaluation is lazy and exact: a point is matched to its disk (if
    any) in O(1) candidate checks and transported by the similarity
    that carries the unit disk onto that disk; everything outside the
    disks passes through bit-exactly. The claimed constant equals the
    disk map's own claim.
    """

    tag = "disk_replication"
    fields = (("map", "disk_map"),)

    def __init__(self, disk_map):
        self.disk_map = disk_map
        self.dim = disk_map.dim
        self.lambda_claimed = disk_map.lambda_claimed

    @staticmethod
    def _disk(j):
        s = np.ldexp(1.0, j)  # 2^j; the centre 4^j = s^2 (0 for j = 0) is exact
        return np.where(j > 0, s * s, 0.0), s

    @staticmethod
    def disk_count(radius):
        """Disks D(0, 1), D(4^j e1, 2^j) within ``radius`` of 0; D(0, 1) always."""
        count = 1
        while 4.0 ** count + 2.0 ** count <= radius:
            count += 1
        return count

    def _locate(self, pts):
        return locate_replication_disks(pts)

    def _groups(self, j):
        yield self.disk_map, np.flatnonzero(j >= 0)

    def inverse(self):
        return DiskReplicationMap(self.disk_map.inverse())


class TranslatedReplicationMap(_Replication):
    """Applies disk maps on the unit disks centered at 0, 2e1, 4e1, ...

    Either a finite list of disk maps (entry j acts on the disk at
    2j*e1; None entries mean the identity) or a single uniform map
    acting on every disk of the family.
    """

    tag = "translated_replication"
    fields = (("maps", "disk_maps"), ("uniform", "uniform"))

    def __init__(self, disk_maps=None, uniform=None):
        if (disk_maps is None) == (uniform is None):
            raise InvalidPointError("pass exactly one of disk_maps or uniform")
        if uniform is not None:
            self.uniform = uniform
            self.disk_maps = None
            self.dim = uniform.dim
            self.lambda_claimed = uniform.lambda_claimed
        else:
            gs = list(disk_maps)
            if len(gs) > _MAX_TRANSLATED_MAPS:
                raise InvalidPointError(
                    f"at most {_MAX_TRANSLATED_MAPS} maps; use uniform= for more"
                )
            dims = {g.dim for g in gs if g is not None}
            if len(dims) != 1:
                raise DimensionMismatchError("need at least one map, equal dims")
            self.uniform = None
            self.disk_maps = gs
            self.dim = dims.pop()
            claims = [g.lambda_claimed for g in gs if g is not None]
            self.lambda_claimed = (
                float(max(claims)) if claims and all(c is not None for c in claims)
                else None
            )

    def inverse(self):
        if self.uniform is not None:
            return TranslatedReplicationMap(uniform=self.uniform.inverse())
        return TranslatedReplicationMap(
            [None if g is None else g.inverse() for g in self.disk_maps])

    @staticmethod
    def _disk(j):
        return 2.0 * j, np.ones(np.shape(j))

    def disk_count(self, radius):
        """Disks read within ``radius``: 1 + radius / 2, at most 65 and the listed maps."""
        count = 1 + int(min(radius / 2.0, 64.0))
        return count if self.disk_maps is None else min(count, len(self.disk_maps))

    def _groups(self, j):
        if self.uniform is not None:
            yield self.uniform, np.flatnonzero(j >= 0)
            return
        for jj in np.unique(j[j >= 0]):
            g = self.disk_maps[jj]
            if g is not None:
                yield g, np.flatnonzero(j == jj)  # an index gathers faster than a mask

    def _locate(self, pts):
        """Disk index of each row, or -1. Only the nearest centre, disk
        j = rint(x1 / 2), can hold a row; where the next lower centre is
        as near (x1 = 2j - 1, or 2(j - 1) rounds to 2j past 2^53), disk
        j - 1 holds it too and wins. j stays an integral float, so the
        index j - 1 is taken in integers at the end."""
        x1 = pts[:, 0]
        rest_sq = row_dots(pts[:, 1:], pts[:, 1:])
        j = np.rint(x1 / 2.0)
        c, s = self._disk(j)
        with np.errstate(invalid="ignore"):  # x1 = +-inf: inf - inf, no disk
            d = np.abs(x1 - c)
            lower = (j >= 1.0) & (np.abs(x1 - self._disk(j - 1.0)[0]) == d)
        last = _MAX_TRANSLATED_DISK if self.uniform is not None else len(self.disk_maps) - 1
        k = j - lower  # the disk index, rounded past 2^53
        hit = (k >= 0.0) & (k <= last) & (d * d + rest_sq <= s * s)
        return np.where(hit, j, -1.0).astype(np.int64) - (hit & lower)


class ProductMap(MapExpr):
    """(x, y) -> (f(x), g(y)) on R^{k+l}."""

    tag = "product"
    fields = (("left", "left"), ("right", "right"))

    def __init__(self, left, right):
        self.left = left
        self.right = right
        self.dim = left.dim + right.dim
        lams = (left.lambda_claimed, right.lambda_claimed)
        self.lambda_claimed = float(max(lams)) if None not in lams else None

    def _split(self, pts):
        k = self.left.dim
        return pts[:, :k], pts[:, k:]

    def _eval(self, pts):
        x, y = self._split(pts)
        return np.hstack([self.left._eval(x), self.right._eval(y)])

    def _displacement(self, pts):
        x, y = self._split(pts)
        return np.hstack([self.left._displacement(x), self.right._displacement(y)])

    def inverse(self):
        return ProductMap(self.left.inverse(), self.right.inverse())


class SpiralMap(MapExpr):
    """x -> f(||x||) x for a rotation-valued profile f; 0 -> 0.

    Maps every sphere about the origin to itself. The claimed constant
    is n * c_bound + 1.
    """

    tag = "spiral"
    fields = (("profile", "profile"),)

    def __init__(self, profile):
        self.profile = profile
        self.dim = profile.dim
        self.lambda_claimed = profile.dim * profile.c_bound + 1.0

    def _eval(self, pts):
        r = row_norms(pts)
        nz = r > 0.0
        if nz.all():  # the rotated rows are a fresh array already
            return self.profile.rotate(r, pts)
        out = pts.copy()
        if nz.any():
            out[nz] = self.profile.rotate(r[nz], pts[nz])
        return out

    def inverse(self):
        # (phi_f)^{-1} = phi_g with g(t) = f(t)^{-1}; negating an angle
        # or transposing a matrix is exact
        return SpiralMap(self.profile.inverse())


class PLHomeomorphismMap(MapExpr):
    """A boundary-fixed PLMap as a self-map of R^n (identity outside);
    with ``inverted`` its inverse, which has the same constant."""

    tag = "pl"
    fields = (("map", "plmap"), ("inverted", "inverted"))

    def __init__(self, plmap, inverted=False):
        if not plmap.boundary_fixed:
            raise SupportViolationError(
                "a PL node must be boundary-fixed to act on all of R^n"
            )
        self.plmap = plmap
        self.dim = plmap.dim
        self.inverted = True if inverted else None  # None: the text omits it
        self.lambda_claimed = plmod.pl_bilip_constant(plmap)

    def _eval(self, pts):
        fn = plmod.pl_eval_inverse if self.inverted else plmod.pl_eval
        return fn(self.plmap, pts)

    def inverse(self):
        # a copy keeps the claim, as PLDiskMap.inverse does
        inv = copy.copy(self)
        inv.inverted = None if self.inverted else True
        return inv


class CompositionMap(_Composition, MapExpr):
    """maps[0] o maps[1] o ... (rightmost applied first)."""

    tag = "compose"

    def _eval(self, pts):
        return self.apply(pts)

    def _displacement(self, pts):
        # (f o g)(x) - x = disp_f(g(x)) + disp_g(x), folded right to left
        total = np.zeros_like(pts)
        cur = pts
        for m in reversed(self.maps):
            total = total + m._displacement(cur)
            cur = m._eval(cur)
        return total


class InverseMap(MapExpr):
    """The text node ``inverse(map=...)``; it acts as ``inner.inverse()``."""

    tag = "inverse"
    fields = (("map", "inner"),)

    def __init__(self, inner):
        self.inner = inner
        self._inv = inner.inverse()
        self.dim = inner.dim
        self.lambda_claimed = inner.lambda_claimed  # symmetric in the definition

    def _eval(self, pts):
        return self._inv._eval(pts)

    def _displacement(self, pts):
        return self._inv._displacement(pts)

    def inverse(self):
        return self.inner


# =====================================================================
# Replication disk geometry
# =====================================================================

def locate_replication_disks(pts):
    """Disk index for each row of ``pts``: the unique j with
    ||v - 4^j e1|| <= 2^j (j=0 means the unit disk), or -1.

    A point of disk j >= 1 has 4^j - 2^j <= x1 <= 4^j + 2^j, so the
    binary exponent e of x1 + 1/2 (``np.frexp``: m 2^e, 1/2 <= |m| < 1)
    is 2j or 2j + 1; for the unit disk e <= 1. So j = max(e // 2, 0) is
    the only candidate, and 4^j and 2^j are exact powers of two. The
    half also covers x1 = 2 - 2^-52, which the rounded distance to 4
    puts on the boundary of disk 1. The candidate is capped at the last
    disk whose centre is finite: beyond it, and for non-finite rows,
    the squared distance is not finite and no disk holds the row.
    """
    x1 = pts[:, 0]
    rest_sq = row_dots(pts[:, 1:], pts[:, 1:])
    j = np.clip(np.frexp(x1 + 0.5)[1] >> 1, 0, _MAX_FINITE_DISK).astype(np.int64)
    center, radius = DiskReplicationMap._disk(j)
    hit = (x1 - center) ** 2 + rest_sq <= radius * radius
    return np.where(hit, j, -1)


def locate_replication_disk(v):
    """Disk index for a single point, or None when it lies in no disk."""
    arr = as_vector(v)
    j = int(locate_replication_disks(arr[None, :])[0])
    return None if j < 0 else j


# =====================================================================
# Public constructors and evaluation
# =====================================================================

def identity(dim):
    return IdentityMap(dim)


def affine(matrix, offset=None):
    return AffineMap(matrix, offset)


def radial_extension(phi):
    return RadialExtensionMap(phi)


def disk_replication(g):
    return DiskReplicationMap(g)


def translated_replication(disk_maps=None, uniform=None):
    return TranslatedReplicationMap(disk_maps=disk_maps, uniform=uniform)


def product_map(f, g):
    return ProductMap(f, g)


def spiral_map(profile):
    return SpiralMap(profile)


def pl_homeomorphism(plmap):
    return PLHomeomorphismMap(plmap)


def compose(f, g):
    """Composition f o g: evaluate(compose(f, g), v) = f(g(v))."""
    if f.dim != g.dim:
        raise DimensionMismatchError(f"cannot compose dims {f.dim} and {g.dim}")
    parts = []
    for m in (f, g):
        parts.extend(m.maps if isinstance(m, CompositionMap) else [m])
    return CompositionMap(parts)


def inverse(m):
    if isinstance(m, InverseMap):
        return m.inner
    return InverseMap(m)


def evaluate_points(m, pts):
    """Image of row points under a map expression."""
    return m._eval(as_points(pts, dim=m.dim))


def evaluate(m, v):
    """Image of a single point."""
    return m._eval(as_vector(v, dim=m.dim)[None, :])[0]


def evaluate_inverse_points(m, pts):
    return m._eval_inverse(as_points(pts, dim=m.dim))


def evaluate_inverse(m, v):
    return m._eval_inverse(as_vector(v, dim=m.dim)[None, :])[0]


def displacement_points(m, pts):
    """f(x) - x for row points, computed at the construction's scale.

    Exactly the displacement field of the map; preferred over
    subtracting absolute coordinates when points sit on far-away disks.
    """
    return m._displacement(as_points(pts, dim=m.dim))


def displacement(m, v):
    return m._displacement(as_vector(v, dim=m.dim)[None, :])[0]


def jacobian_fd(m, x, step=None):
    """Central-difference Jacobian of a map expression at ``x``.

    Default step 1e-5 * max(1, ||x||). Column k holds the difference
    quotient along axis k.
    """
    xv = as_vector(x, dim=m.dim)
    h = step if step is not None else 1e-5 * max(1.0, float(np.linalg.norm(xv)))
    probes = np.repeat(xv[None, :], 2 * m.dim, axis=0)
    for k in range(m.dim):
        probes[2 * k, k] += h
        probes[2 * k + 1, k] -= h
    vals = m._eval(probes)
    jac = np.empty((m.dim, m.dim))
    for k in range(m.dim):
        jac[:, k] = (vals[2 * k] - vals[2 * k + 1]) / (2.0 * h)
    return jac
