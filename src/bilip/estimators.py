"""Numerical certification: sampled bi-Lipschitz bounds, quasi-isometry
checks, covering-radius estimates, drift witnesses and graph-based
length metrics.

Estimators are pure functions of their SamplerConfig. Randomness comes
from one named generator (PCG64); each estimator hashes its operation
name into the seed so that different estimators draw independent
streams from the same user seed. All randomness for pair i occupies a
fixed block of uniforms, generated in row order, so the first N pairs
of a longer run coincide with a shorter run bit for bit (estimates are
monotone in n_pairs), and chunked evaluation reduces with a
deterministic ordered max, so results are reproducible bit for bit.

Unit directions are exact functions of uniforms (``_directions``): a
sign on S^0, one angle on S^1, Archimedes' height and angle on S^2;
Box-Muller normals, normalised, only from R^4 on. A region turns a
block of ``_direction_width(n) + 1`` uniforms into a point: a ball or
an annulus takes a direction and a radial uniform, a box reads the
uniforms as coordinates. Every pair family is sampled here (the pair
stream's global, local and witness rows; sphere, equal-radius and
cross-disk pairs) and reduced by ``_running_max`` under one
degenerate-pair floor; ``verify`` draws and reduces none itself.
Witness rows follow one rule per construction and stay in the region.

The chunked samplers (the pair stream and the sphere pairs) read ahead:
one worker thread draws chunk i + 1 while the caller evaluates and
reduces chunk i (``_read_ahead``). The worker only draws (uniforms,
directions, region points, witness rows) and never calls a node's
``_eval`` or ``apply``; evaluation and reduction stay on the calling
thread. Values and order cannot change: the worker runs one draw at a
time, in chunk order, so the generator advances row after row exactly as
a single thread would, and the chunk size moves no row.

scipy is imported on first use, by ``c_density`` and the graph metrics
only, so the rest of the package loads and runs on numpy alone.
"""

import hashlib
from dataclasses import dataclass, field

import numpy as np

from . import maps as M
from .core import as_points, as_vector, row_dots, row_norms
from .errors import (
    DimensionMismatchError,
    DisconnectedCloudError,
    EmptyRegionError,
    InsufficientSamplesError,
    InvalidPointError,
    NoWitnessError,
    TrivialWitnessError,
)

_CHUNK = 32768  # rows per chunk of a pair stream: a chunk's arrays stay in cache
_DRAW_ROWS = 4096  # rows of uniforms per draw (see _uniform_block)
_DEGENERATE_PAIR = 1e-12
_RELATIVE_SLACK = 1e-9  # float headroom on proven inequalities
REFUTATION_SLACK = 1e-6  # a sampled ratio refutes a claim only beyond this, relative


def _op_rng(seed, op_name):
    """Generator for (seed, op name); the op name is hashed with sha256
    so streams are stable across runs and platforms."""
    tag = int.from_bytes(hashlib.sha256(op_name.encode()).digest()[:8], "big")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, tag])))


def _normals(u):
    """Standard normals from an even number of uniform columns (rows of
    ``u``) via Box-Muller: columns 2i, 2i+1 give normals 2i, 2i+1."""
    r = np.sqrt(-2.0 * np.log1p(-u[0::2]))
    ang = 2.0 * np.pi * u[1::2]
    out = np.empty_like(u)
    out[0::2] = r * np.cos(ang)
    out[1::2] = r * np.sin(ang)
    return out


def _unit_rows(v):
    nrm = row_norms(v)
    nrm = np.where(nrm == 0.0, 1.0, nrm)
    return v / nrm[:, None]


def _direction_width(n):
    """Uniform columns per unit direction in R^n (see _directions)."""
    return 1 if n <= 2 else 2 if n == 3 else n + n % 2


def _directions(u, n):
    """Unit directions in R^n, uniform on the sphere, one per column of
    the uniform block ``u`` (shape (k, count), k >= _direction_width(n);
    only the first _direction_width(n) rows are read).

    n = 1: the sign of u0 - 1/2. n = 2: the angle pi (2 u0 - 1). n = 3:
    Archimedes' projection, z = 2 u0 - 1 and the angle pi (2 u1 - 1).
    n >= 4: Box-Muller normals from n rounded up to even columns,
    normalised.
    """
    if n == 1:
        return np.where(u[0] < 0.5, -1.0, 1.0)[:, None]
    if n > 3:
        return _unit_rows(_normals(u[: n + n % 2])[:n].T)
    out = np.empty((n, u.shape[1]))  # filled by coordinate, returned transposed
    t = np.pi * (2.0 * u[n - 2] - 1.0)  # in [-pi, pi): faster trig than [0, 2 pi)
    np.cos(t, out=out[0])
    np.sin(t, out=out[1])
    if n == 3:
        out[2] = 2.0 * u[0] - 1.0
        out[:2] *= np.sqrt((1.0 - out[2]) * (1.0 + out[2]))
    return out.T


def _uniform_block(rng, count, width):
    """``count`` rows of ``width`` uniforms, drawn in row order (so a
    shorter draw is a prefix of a longer one) and returned transposed:
    one contiguous array of ``count`` values per column. The rows are
    drawn _DRAW_ROWS at a time, so each transposing copy stays in cache."""
    u = np.empty((width, count))
    for start in range(0, count, _DRAW_ROWS):
        stop = min(start + _DRAW_ROWS, count)
        u[:, start:stop] = rng.random((stop - start, width)).T
    return u


# =====================================================================
# Sampling regions
# =====================================================================

def _check_finite(region):
    """Refuse a region whose bounds, or its bounding box's squared
    diagonal, are not finite: its distances would overflow."""
    lo, hi = region.bounds()
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.isfinite(np.sum((hi - lo) ** 2)):
            raise InvalidPointError("region bounds and their squared diagonal must be finite")


@dataclass(frozen=True)
class BoxRegion:
    """Axis-parallel box [lo, hi]; ``sample`` is uniform in volume."""

    lo: tuple
    hi: tuple

    def __post_init__(self):
        lo, hi = np.asarray(self.lo), np.asarray(self.hi)
        if lo.shape != hi.shape or np.any(hi <= lo):
            raise EmptyRegionError("box needs lo < hi componentwise")
        _check_finite(self)

    @property
    def dim(self):
        return len(self.lo)

    @property
    def scale(self):
        return float((np.asarray(self.hi) - np.asarray(self.lo)).max() / 2.0)

    def sample(self, u):
        """Points from a block of uniform columns (one point per column):
        coordinate i is uniform on [lo_i, hi_i] from row i."""
        lo, hi = np.asarray(self.lo), np.asarray(self.hi)
        return lo + u[: self.dim].T * (hi - lo)

    def contains(self, pts):
        lo, hi = np.asarray(self.lo), np.asarray(self.hi)
        return ((pts >= lo) & (pts <= hi)).all(axis=1)

    def bounds(self):
        return np.asarray(self.lo, dtype=float), np.asarray(self.hi, dtype=float)


@dataclass(frozen=True)
class AnnulusRegion:
    """Ball shell between two radii; a ball is the shell of inner radius
    0, and a positive one keeps scale-spanning maps off the origin."""

    center: tuple
    inner: float
    outer: float

    def __post_init__(self):
        if not (0.0 <= self.inner < self.outer):
            raise EmptyRegionError("annulus needs 0 <= inner < outer")
        _check_finite(self)

    @property
    def dim(self):
        return len(self.center)

    @property
    def scale(self):
        return float(self.outer)

    def sample(self, u):
        """Points from a block of uniform columns (one point per column):
        a unit direction from the leading rows, the radius (uniform in
        volume between the radii) from the last."""
        n = self.dim
        q = (self.inner / self.outer) ** n  # never forms outer ** n, which may overflow
        r = self.outer * (q + u[-1] * (1.0 - q)) ** (1.0 / n)
        return np.asarray(self.center) + r[:, None] * _directions(u, n)

    def contains(self, pts):
        r = row_norms(pts - np.asarray(self.center))
        return (r >= self.inner) & (r <= self.outer)

    def bounds(self):
        c = np.asarray(self.center)
        return c - self.outer, c + self.outer


def ball(center, radius):
    return annulus(center, 0.0, radius)


def box(lo, hi):
    return BoxRegion(tuple(float(x) for x in lo), tuple(float(x) for x in hi))


def annulus(center, inner, outer):
    return AnnulusRegion(tuple(float(c) for c in center), float(inner), float(outer))


# =====================================================================
# Sampler configuration and pair streams
# =====================================================================

_MIX = (0.5, 0.3, 0.2)  # fractions of global, local and witness pairs
_LOCAL_SCALE = 1e-3  # local pair offsets, relative to the region scale


@dataclass(frozen=True)
class SamplerConfig:
    """Deterministic pair-sampling plan; identical configs produce
    identical sample streams."""

    seed: int
    region: object
    n_pairs: int

    def __post_init__(self):
        if self.seed < 0:
            raise InvalidPointError("seed must be a nonnegative integer")
        if self.n_pairs < 1:
            raise InvalidPointError("n_pairs must be >= 1")


def _tangential_pairs(u, v, radii, h):
    """Same-sphere pairs (r u, r unit(u + h w)) from unit rows u, v, with
    w the unit part of v perpendicular to u: the tangential offset keeps
    the separation near h r, never collapsed into rounding noise."""
    perp = _unit_rows(v - row_dots(v, u)[:, None] * u)
    r = np.asarray(radii, dtype=float)[..., None]
    return r * u, r * _unit_rows(u + h[:, None] * perp)


def _direction_pairs(rng, n, count):
    """Two unit directions in R^n and two free uniforms per row, from
    one row of 2 k + 2 uniforms, k = _direction_width(n): the first
    direction, the second, then the two free uniforms (the same-sphere
    pair layout)."""
    k = _direction_width(n)
    u = _uniform_block(rng, count, 2 * k + 2)
    return _directions(u[:k], n), _directions(u[k : 2 * k], n), u[-2], u[-1]


def _region_points(rng, region, count):
    """``count`` points of ``region``, each from one row of
    _direction_width(n) + 1 uniforms, the block ``region.sample`` reads
    (direction columns, then the radial uniform)."""
    u = _uniform_block(rng, count, _direction_width(region.dim) + 1)
    return region.sample(u)


def equal_radius_pairs(seed, op_name, dim, count, log_lo, log_span):
    """(x, y, u, v): ``count`` same-sphere pairs x, y of the stream
    ``op_name`` at radius exp(log_lo + w log_span), w uniform, with a
    tangential offset near 10^(-3 w') times it, and their unit copies u, v."""
    u, v, w_radius, w_h = _direction_pairs(_op_rng(seed, op_name), dim, count)
    u, v = _tangential_pairs(u, v, 1.0, 10.0 ** (-3.0 * w_h))
    r = np.exp(log_lo + w_radius * log_span)[:, None]
    return r * u, r * v, u, v


def cross_disk_pairs(seed, op_name, m, n_disks, count):
    """Pairs of the stream ``op_name``, one point uniform in disk i and the
    other in disk j != i, among the first ``n_disks`` disks of node ``m``."""
    n = m.dim
    k = _direction_width(n) + 1
    u = _uniform_block(_op_rng(seed, op_name), count, 2 * k + 2)
    unit_ball = ball((0.0,) * n, 1.0)
    p = unit_ball.sample(u[:k])
    q = unit_ball.sample(u[k : 2 * k])
    i_disk = np.floor(u[-2] * n_disks).astype(int)
    j_disk = np.floor(u[-1] * (n_disks - 1)).astype(int)
    j_disk = np.where(j_disk >= i_disk, j_disk + 1, j_disk)  # force i != j
    return m.disk_points(i_disk, p), m.disk_points(j_disk, q)


def radius_range(region):
    """(lo, hi): the radii that scale-spanning samplers read log-uniformly
    on ``region``. ``hi`` is its scale; ``lo`` is its inner radius, or
    1e-3 of its scale where that is 0 (a ball, a box), never below 1e-6."""
    lo = getattr(region, "inner", 0.0) or 1e-3 * region.scale
    return max(lo, 1e-6), region.scale


def _witness_pairs(m, region, a, b, w1, w2):
    """Construction-aware pairs for the root node of ``m``, one per
    column of the point blocks ``a`` and ``b`` (direction rows, then a
    radial uniform, as ``region.sample`` reads them) and of the free
    uniforms ``w1``, ``w2``.

    One rule per construction, each placed where its distortion lives:
    a radial extension preserves norms along every ray, so its rows are
    tight same-sphere pairs; a spiral turns every sphere rigidly, so its
    rows are offset from a point of log-uniform radius r in a uniform
    direction by r 10^(-6 w2); a replication node's rows are interior
    points of two of its first ``m.disk_count(scale)`` disks; a product's
    rows move one factor only; any other node gets multi-scale local
    pairs. Everything is a pure function of the supplied uniforms.
    """
    n = m.dim
    scale = region.scale
    if isinstance(m, (M.RadialExtensionMap, M.SpiralMap)):
        lo, hi = radius_range(region)
        r = np.exp(np.log(lo) + w1 * (np.log(hi) - np.log(lo)))
        u, v = _directions(a, n), _directions(b, n)
        if isinstance(m, M.RadialExtensionMap):
            return _tangential_pairs(u, v, r, 1e-3 * (0.5 + w2))
        x = r[:, None] * u
        return x, x + (r * 10.0 ** (-6.0 * w2))[:, None] * v
    if hasattr(m, "disk_count"):  # a replication node
        count = m.disk_count(scale)
        j1 = np.floor(w1 * count).astype(np.int64)
        j2 = np.floor(w2 * count).astype(np.int64)
        unit_ball = ball((0.0,) * n, 1.0)
        return m.disk_points(j1, unit_ball.sample(a)), m.disk_points(j2, unit_ball.sample(b))
    if isinstance(m, M.ProductMap):
        x = region.sample(a)
        k = m.left.dim
        h = scale * np.exp(w2 * np.log(1e-3))  # log-uniform in [1e-3, 1] * scale
        offset = np.zeros_like(x)
        left = np.flatnonzero(w1 < 0.5)
        right = np.flatnonzero(w1 >= 0.5)
        offset[left, :k] = _directions(b[:, left], k)
        offset[right, k:] = _directions(b[:, right], n - k)
        return x, x + h[:, None] * offset
    # default: multi-scale local pairs
    x = region.sample(a)
    h = scale * np.exp(w1 * np.log(1e-6))
    return x, x + h[:, None] * _directions(b, n)


def _read_ahead(draw, total):
    """Yield ``draw(count)`` for consecutive chunks of _CHUNK rows (the
    last one shorter) that add up to ``total`` rows, drawing chunk i + 1
    on one worker thread while the caller consumes chunk i.

    Values and order are those of drawing in turn: a draw is submitted
    only after the one before it returned, so a generator that ``draw``
    advances is advanced by one thread at a time, row after row. ``draw``
    runs beside the caller's work, so it only draws and calls no node
    method. An error raised while drawing comes out of the ``next()``
    that asks for its chunk; closing the stream waits for the chunk in
    flight, and the worker ends.
    """
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(1) as worker:
        ahead = worker.submit(draw, min(_CHUNK, total))
        for start in range(_CHUNK, total, _CHUNK):
            chunk = ahead.result()
            ahead = worker.submit(draw, min(_CHUNK, total - start))
            yield chunk
        yield ahead.result()


def _pair_chunks(m, cfg, op_name):
    """Yield (x, y) chunks of the deterministic pair stream, each drawn
    one chunk ahead on a worker thread (see _read_ahead).

    Pair i reads row i of a fixed-width block of uniforms: the family
    selector, the blocks of its two points (k = _direction_width(n) + 1
    uniforms each, which ``region.sample`` reads), then three free
    uniforms. Global, local and witness pairs are each computed on
    their own rows only, from a gather of the uniforms they read. A
    witness pair with a point outside the region is replaced by the
    global pair of its own row, so every witness pair lies in the region.

    The rule for ``draw``, which runs on the worker: it only draws
    (uniforms, directions, ``region.sample`` and ``contains``, and
    ``_witness_pairs``, which reads a node's disk geometry through
    ``disk_count`` and ``disk_points``) and calls no node's ``_eval`` or
    ``apply``, so every evaluation, and every span a caller-side tracer
    opens, stays on the calling thread. The stream's one generator
    advances in row order whatever the chunk size, so values and order
    are those of a single-threaded draw.
    """
    n = m.dim
    region = cfg.region
    if region.dim != n:
        raise DimensionMismatchError(
            f"region dimension {region.dim} != map dimension {n}"
        )
    k = _direction_width(n) + 1
    a, b = slice(0, k), slice(k, 2 * k)  # the two point blocks of a gather
    rng = _op_rng(cfg.seed, op_name)
    g_frac, l_frac, _ = _MIX

    def draw(count):
        # no family reads the last column; it keeps global and local rows as they were
        u = _uniform_block(rng, count, 1 + 2 * k + 3)
        cat = u[0]
        x = np.empty((count, n))
        y = np.empty((count, n))

        rows = np.flatnonzero(cat < g_frac)
        v = np.take(u[1 : 1 + 2 * k], rows, axis=1)
        x[rows] = region.sample(v[a])
        y[rows] = region.sample(v[b])

        rows = np.flatnonzero((cat >= g_frac) & (cat < g_frac + l_frac))
        v = np.take(u[1 : 2 + 2 * k], rows, axis=1)
        x[rows] = xl = region.sample(v[a])
        h = _LOCAL_SCALE * region.scale * (0.5 + v[-1])
        y[rows] = xl + h[:, None] * _directions(v[b], n)

        rows = np.flatnonzero(cat >= g_frac + l_frac)
        v = np.take(u[1:], rows, axis=1)
        xw, yw = _witness_pairs(m, region, v[a], v[b], v[-3], v[-2])
        out = np.flatnonzero(~(region.contains(xw) & region.contains(yw)))
        xw[out] = region.sample(v[a][:, out])
        yw[out] = region.sample(v[b][:, out])
        x[rows], y[rows] = xw, yw
        return x, y

    yield from _read_ahead(draw, cfg.n_pairs)


# =====================================================================
# Bi-Lipschitz estimates
# =====================================================================

@dataclass
class BilipEstimate:
    """Sampled lower bound: no valid bi-Lipschitz constant of the map
    on the region can be smaller than ``lambda_lower``."""

    lambda_lower: float
    worst_pair: tuple  # (x, y, ratio)
    n_pairs_used: int
    seed: int

    def record(self):
        x, y, ratio = self.worst_pair
        return {
            "lambda_lower": self.lambda_lower,
            "worst_pair": {"x": list(x), "y": list(y), "ratio": ratio},
            "n_pairs": self.n_pairs_used,
            "seed": self.seed,
        }


def _two_point_stats(f, x, y):
    """Distance ratios of the point map ``f`` on one chunk of pairs;
    pairs closer than 1e-12 are dropped. Returns (keep_count, stats,
    ratios, x, y) filtered, with stat = max(r, 1/r).

    x - y is freed before ``f`` runs, since ``f`` makes the chunk's
    largest temporaries; the ratios and stats are formed in place.
    x, y and the images of ``f`` are only read.
    """
    d = row_norms(x - y)
    keep = d >= _DEGENERATE_PAIR
    kept = int(np.count_nonzero(keep))
    if kept == 0:
        return 0, None, None, None, None
    if kept < d.shape[0]:  # usually every pair is kept: no copies then
        x, y, d = x[keep], y[keep], d[keep]
    ratio = row_norms(f(x) - f(y))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio /= d
        stat = np.divide(1.0, ratio)
    stat[~(ratio > 0)] = np.inf
    np.maximum(ratio, stat, out=stat)
    return kept, stat, ratio, x, y


def distortion(f, x, y):
    """(worst, ratios) of the point map ``f`` on one batch of pairs: the
    largest max(r, 1/r), a NaN counting as +inf, and the ratios of the
    pairs kept (1e-12 apart or more); (-inf, None) when none is kept."""
    stats = _two_point_stats(f, x, y)
    return _running_max([stats])[0], stats[2]


def _running_max(chunks):
    """Ordered running maximum over (keep_count, stats, ratios, x, y)
    chunks, as _two_point_stats returns them.

    A NaN stat counts as +inf, so a pair whose images are not finite is
    a violation and is never skipped. Returns (best, pair, kept): the
    largest stat (-inf when no pair is kept), its first pair
    (x, y, ratio) or None, and the number of pairs kept.
    """
    best, pair, kept = -np.inf, None, 0
    for count, stat, ratio, x, y in chunks:
        if count == 0:
            continue
        kept += count
        stat[np.isnan(stat)] = np.inf  # a chunk's stats are its own to change
        k = int(np.argmax(stat))
        if stat[k] > best:
            best = float(stat[k])
            pair = (x[k].copy(), y[k].copy(), float(ratio[k]))
    return best, pair, kept


def bilip_lower_bound(m, cfg, op_name="bilip_lower_bound"):
    """Largest sampled two-point distortion max(r, 1/r) of ``m``.

    Deterministic given the config; monotone nondecreasing in n_pairs
    for a fixed seed (prefix property of the sample stream). A pair
    with non-finite images gives an infinite bound.
    """
    best, pair, used = _running_max(_two_point_stats(m._eval, x, y)
                                    for x, y in _pair_chunks(m, cfg, op_name))
    if used == 0:
        raise InsufficientSamplesError("all sampled pairs were degenerate")
    return BilipEstimate(max(best, 1.0), pair, used, cfg.seed)


def check_claim(lam):
    """Refuse a claimed bi-Lipschitz constant that is not finite and >= 1."""
    if not (np.isfinite(lam) and lam >= 1.0):
        raise InvalidPointError(f"a claimed constant is a finite number >= 1, got {lam}")


def refutes(observed, claim):
    """Whether the observed distortion refutes ``claim``: it does unless
    the claim is finite and the distortion at most claim (1 +
    REFUTATION_SLACK). A NaN distortion refutes every claim."""
    return not (np.isfinite(claim) and observed <= claim * (1.0 + REFUTATION_SLACK))


def falsify_bilip_bound(m, lambda_claim, cfg, op_name="falsify_bilip_bound"):
    """Search for a pair violating the claimed constant by more than
    REFUTATION_SLACK relative. Returns the worst violating pair (x, y,
    ratio) or None; None is absence of refutation, not a proof. A pair
    with non-finite images violates every claim.

    The witness is the ``worst_pair`` of ``bilip_lower_bound`` on the
    stream named ``op_name`` when its ``lambda_lower`` refutes the
    claim, so a caller holding the estimate needs no second pass.
    """
    check_claim(lambda_claim)
    try:
        est = bilip_lower_bound(m, cfg, op_name)
    except InsufficientSamplesError:
        return None
    return est.worst_pair if refutes(est.lambda_lower, lambda_claim) else None


def sphere_bilip_lower_bound(phi, seed, n_pairs):
    """Chordal-metric bi-Lipschitz lower bound for a sphere self-map.

    Mixes independent sphere pairs with tight same-sphere pairs, whose
    chordal ratios approach the differential stretch.
    """
    rng = _op_rng(seed, "sphere_bilip_lower_bound")

    def draw(count):
        xu, yu, sel, hraw = _direction_pairs(rng, phi.dim, count)
        local = sel < 0.5
        # tangential offsets from 1e-1 to 1e-4 on half the pairs
        _, yu[local] = _tangential_pairs(xu[local], yu[local], 1.0,
                                         10.0 ** (-1.0 - 3.0 * hraw[local]))
        return xu, yu

    best, pair, used = _running_max(_two_point_stats(phi.apply, x, y)
                                    for x, y in _read_ahead(draw, n_pairs))
    if used == 0:
        raise InsufficientSamplesError("all sampled sphere pairs were degenerate")
    return BilipEstimate(max(best, 1.0), pair, used, seed)


# =====================================================================
# Quasi-isometry checks
# =====================================================================

def _product_blocks(m):
    """Column blocks of the flattened product structure of ``m``.

    The 'l1' metric sums Euclidean norms over these blocks, matching
    the product norm ||(x, y)||_1 = ||x|| + ||y|| used to compose
    quasi-isometry parameters; a non-product map is a single block.
    """
    blocks = []

    def walk(node, offset):
        if isinstance(node, M.ProductMap):
            walk(node.left, offset)
            walk(node.right, offset + node.left.dim)
        else:
            blocks.append((offset, offset + node.dim))

    walk(m, 0)
    return blocks


def _metric(blocks, metric):
    if metric == "euclidean":
        return lambda a, b: row_norms(a - b)
    if metric != "l1":
        raise InvalidPointError(f"unknown metric {metric!r}")

    def l1(a, b):
        total = np.zeros(a.shape[0])
        for lo, hi in blocks:
            total += row_norms(a[:, lo:hi] - b[:, lo:hi])
        return total

    return l1


@dataclass
class QiCheckResult:
    passed: bool
    worst_margin: float
    worst_pair: tuple | None
    n_pairs_used: int
    seed: int


def qi_embedding_check(m, lam, eps, metric, cfg, op_name="qi_embedding_check"):
    """Check (1/lam) d(x,y) - eps <= d(f x, f y) <= lam d(x,y) + eps on
    every sampled pair; fails on any violation beyond float slack and on
    any pair with non-finite images.

    ``lam`` must pass ``check_claim`` and ``eps`` be finite and >= 0.
    ``metric`` is 'euclidean' or 'l1'; 'l1' sums Euclidean block norms
    over the map's product structure; any other metric raises.
    """
    check_claim(lam)
    if not (np.isfinite(eps) and eps >= 0.0):
        raise InvalidPointError(f"eps is a finite number >= 0, got {eps}")
    dist = _metric(_product_blocks(m), metric)

    def chunks():
        # stat = -(relative margin), so the worst pair is the largest stat
        for x, y in _pair_chunks(m, cfg, op_name):
            d = dist(x, y)
            keep = d >= _DEGENERATE_PAIR
            if not keep.any():
                continue
            x, y, d = x[keep], y[keep], d[keep]
            df = dist(m._eval(x), m._eval(y))
            up = (lam * d + eps) - df
            low = df - (d / lam - eps)
            margin = np.minimum(up, low)
            slack = _RELATIVE_SLACK * (d + df + eps)
            rel = margin / np.maximum(slack / _RELATIVE_SLACK, 1e-300)
            yield int(keep.sum()), -rel, df / d, x, y

    neg_worst, worst_pair, used = _running_max(chunks())
    if used == 0:
        raise InsufficientSamplesError("all sampled pairs were degenerate")
    worst = -neg_worst
    return QiCheckResult(worst >= -_RELATIVE_SLACK, worst, worst_pair, used, cfg.seed)


# =====================================================================
# Covering radius (C-density)
# =====================================================================

def _region_grid(region, step, stagger):
    lo, hi = region.bounds()
    offset = 0.5 * step if stagger else 0.0
    axes = [np.arange(lo[a] + offset, hi[a] + step / 2, step) for a in range(len(lo))]
    total = int(np.prod([len(ax) for ax in axes]))
    if total > 4_000_000:
        raise InvalidPointError(f"grid of {total} points is beyond desk scale")
    if total == 0:
        raise EmptyRegionError("grid step larger than the region")
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack(mesh, axis=-1).reshape(-1, len(lo))
    return pts[region.contains(pts)]


def c_density(m, region, grid_step):
    """Covering-radius estimate: the largest distance from a staggered
    grid point of the region to the image of a surrounding domain grid.

    Upper-bounds the covering gap of the sampled image up to the grid
    resolution. The domain grid is padded by the largest sampled
    displacement so images from outside the region can cover its edge.
    """
    from scipy.spatial import cKDTree

    if grid_step <= 0.0:
        raise InvalidPointError("grid_step must be positive")
    domain = _region_grid(region, grid_step, stagger=False)
    if domain.shape[0] == 0:
        raise EmptyRegionError("region contains no grid points")
    drift = row_norms(m._displacement(domain)).max()
    pad = float(drift + 2.0 * grid_step)
    lo, hi = region.bounds()
    padded = box(lo - pad, hi + pad)
    sources = _region_grid(padded, grid_step, stagger=False)
    targets = _region_grid(region, grid_step, stagger=True)
    images = m._eval(sources)
    tree = cKDTree(images)
    dist, _ = tree.query(targets, k=1)
    return float(dist.max())


# =====================================================================
# Drift reports and witness builders
# =====================================================================

VERDICT_BOUNDED = "bounded-below-threshold"
VERDICT_EXCEEDS = "exceeds-threshold-with-growth"
_GROWTH = 1e6  # the rise over the first nonzero drift that witnesses growth


@dataclass
class DriftReport:
    """Displacement norms ||f(x_k) - x_k|| along a witness sequence.

    The verdict is 'exceeds-threshold-with-growth' only when the last
    five drifts strictly increase and the last passes ``threshold``, or
    without one 1e6 times the first nonzero drift (all drifts 0 read
    bounded); unboundedness is never decided, only witnessed.
    """

    witnesses: np.ndarray
    drifts: np.ndarray
    threshold: float | None
    verdict: str = field(init=False)

    def __post_init__(self):
        drifts = self.drifts
        if self.threshold is None:  # divided, as 1e6 times a huge drift overflows
            nonzero = drifts[drifts != 0]
            passes = nonzero.size > 0 and drifts[-1] / _GROWTH > nonzero[0]
        else:
            passes = drifts[-1] > self.threshold
        exceeds = passes and np.all(np.diff(drifts[-5:]) > 0)
        self.verdict = VERDICT_EXCEEDS if exceeds else VERDICT_BOUNDED


def max_relative_error(observed, expected):
    """Largest |observed - expected| / expected over a closed-form law."""
    return float(np.max(np.abs(observed - expected) / expected))


def ray_witnesses(x0, count):
    """Witness points 2^k x0, k = 1..count, out along the ray through x0."""
    ks = np.arange(1, count + 1)
    return (2.0 ** ks)[:, None] * np.asarray(x0, dtype=float)[None, :]


def drift_profile(m, witnesses, threshold=None):
    """Evaluate the displacement field along witness points.

    Displacements are computed by each node's scale-aware form, which
    is the exact rearrangement of f(x) - x (never a literal infinity
    test; unboundedness is evidenced by growth past the threshold).
    """
    pts = as_points(witnesses, dim=m.dim)
    if pts.shape[0] == 0:
        raise InvalidPointError("need at least one witness point")
    drifts = row_norms(m._displacement(pts))
    return DriftReport(pts, drifts, threshold)


def replication_drift_witnesses(g, x0, count):
    """Witness points 4^k e1 + 2^k x0, k = 1..count, for the disk
    replication of ``g``; requires g to move x0."""
    x0 = as_vector(x0, dim=g.dim)
    if np.linalg.norm(x0) >= 1.0:
        raise InvalidPointError("x0 must lie in the open unit ball")
    moved = np.linalg.norm(M.disk_apply(g, x0) - x0)
    if moved == 0.0:
        raise TrivialWitnessError("g fixes x0; drift witnesses need g(x0) != x0")
    return M.disk_replication(g).disk_points(np.arange(1, count + 1), x0[None, :])


def rotation_angle_and_plane(a):
    """Largest rotation angle of an orthogonal matrix and a unit vector
    in the corresponding invariant plane."""
    vals, vecs = np.linalg.eig(a)
    angles = np.abs(np.angle(vals))
    k = int(np.argmax(angles))
    u = np.real(vecs[:, k])
    nrm = np.linalg.norm(u)
    if nrm < 1e-12:  # purely imaginary eigenvector: use the imaginary part
        u = np.imag(vecs[:, k])
        nrm = np.linalg.norm(u)
    return float(angles[k]), u / nrm


def spiral_drift_witnesses(p, count):
    """Witness points of norm 2^k for a spiral whose far field rotates.

    Constant profiles give every k with the invariant-plane direction
    of the limit rotation; log-spirals keep only the k whose rotation
    angle at radius 2^k stays in [pi/2, 3pi/2] so drifts grow
    monotonically; compactly supported profiles have no witnesses.
    """
    kind, data = p.far_field()
    if kind == "identity":
        raise NoWitnessError("profile is the identity far out (kernel element)")
    if kind == "rotation":
        theta, u = rotation_angle_and_plane(data)
        if theta < 1e-6:
            raise NoWitnessError("far-field rotation indistinguishable from identity")
        return ray_witnesses(u, count)
    # oscillating plane angle c*ln r: keep radii whose angle is far from 0 mod 2pi
    ang = np.mod(data * np.arange(1, count + 1) * np.log(2.0), 2.0 * np.pi)
    keep = (ang >= np.pi / 2) & (ang <= 3 * np.pi / 2)
    if not keep.any():
        raise NoWitnessError("no radius 2^k with rotation angle bounded away from 0")
    return ray_witnesses(M.unit_axis(p.dim, p.plane[0]), count)[keep]


# =====================================================================
# Graph-based length metrics on point clouds
# =====================================================================

def dijkstra(*args, **kwargs):
    """``scipy.sparse.csgraph.dijkstra``, imported on first call."""
    from scipy.sparse.csgraph import dijkstra as run

    return run(*args, **kwargs)


def default_eps(cloud):
    """Four times the largest nearest-neighbour distance of the cloud:
    an eps that connects each point to a handful of neighbours."""
    from scipy.spatial import cKDTree

    d, _ = cKDTree(cloud).query(cloud, k=2)
    return float(4.0 * d[:, 1].max())


def _check_eps(eps):
    """Refuse a graph eps that is not finite and > 0 (cKDTree takes r < 0 as no bound)."""
    if not (np.isfinite(eps) and eps > 0.0):
        raise InvalidPointError(f"eps is a finite number > 0, got {eps}")


def neighbor_graph(cloud, eps):
    """Symmetric eps-neighborhood graph with Euclidean edge weights.

    Raises on an eps that is not finite and > 0 or a disconnected graph.
    """
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components
    from scipy.spatial import cKDTree

    _check_eps(eps)
    pts = as_points(cloud)
    tree = cKDTree(pts)
    pairs = tree.query_pairs(r=eps, output_type="ndarray")
    if pairs.shape[0] == 0:
        raise DisconnectedCloudError("eps too small: no edges at all")
    w = row_norms(pts[pairs[:, 0]] - pts[pairs[:, 1]])
    n = pts.shape[0]
    g = coo_matrix(
        (np.concatenate([w, w]),
         (np.concatenate([pairs[:, 0], pairs[:, 1]]),
          np.concatenate([pairs[:, 1], pairs[:, 0]]))),
        shape=(n, n),
    ).tocsr()
    n_comp, _ = connected_components(g, directed=False)
    if n_comp != 1:
        raise DisconnectedCloudError(
            f"eps-graph splits into {n_comp} components; increase eps"
        )
    return g


def geodesic_estimate(cloud, eps, i, j, graph=None):
    """Shortest-path length between cloud points i and j in the
    eps-neighborhood graph; always >= the chordal distance and
    converges to the length metric as the cloud densifies."""
    pts = as_points(cloud)
    g = neighbor_graph(pts, eps) if graph is None else graph
    dist = dijkstra(g, directed=False, indices=[i])
    d = float(dist[0, j])
    if not np.isfinite(d):
        raise DisconnectedCloudError(f"no path between {i} and {j}")
    return d


def metric_equivalence_ratio(cloud, eps, n_pairs, seed, graph=None):
    """Max over sampled pairs of (graph length / chord): a sampled
    lower bound for the constant making the intrinsic and ambient
    metrics bi-Lipschitz equivalent."""
    if n_pairs < 1:
        raise InvalidPointError(f"n_pairs must be >= 1, got {n_pairs}")
    pts = as_points(cloud)
    g = neighbor_graph(pts, eps) if graph is None else graph
    rng = _op_rng(seed, "metric_equivalence_ratio")
    n = pts.shape[0]
    n_sources = int(min(max(int(np.ceil(np.sqrt(n_pairs))), 1), 128))
    per_source = max(n_pairs // n_sources, 1)
    sources = rng.integers(0, n, size=n_sources)
    targets = rng.integers(0, n, size=(n_sources, per_source))
    dist = dijkstra(g, directed=False, indices=sources)
    best = 1.0
    for row, src in enumerate(sources):
        tgt = targets[row]
        tgt = tgt[tgt != src]
        chord = row_norms(pts[tgt] - pts[src])
        keep = chord >= _DEGENERATE_PAIR
        if not keep.any():
            continue
        ratio = dist[row, tgt[keep]] / chord[keep]
        best = max(best, float(ratio.max()))
    return best


# =====================================================================
# Example hypersurface clouds
# =====================================================================

def circle_cloud(n_points, radius=1.0):
    t = 2.0 * np.pi * np.arange(n_points) / n_points
    return np.stack([radius * np.cos(t), radius * np.sin(t)], axis=1)


def ellipse_cloud(a, b, n_points):
    t = 2.0 * np.pi * np.arange(n_points) / n_points
    return np.stack([a * np.cos(t), b * np.sin(t)], axis=1)


def sphere_cloud(n_points):
    """Deterministic, nearly uniform cloud on S^2 (Fibonacci lattice)."""
    k = np.arange(n_points)
    golden = (1.0 + np.sqrt(5.0)) / 2.0
    z = 1.0 - (2.0 * k + 1.0) / n_points
    r = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    t = 2.0 * np.pi * k / golden
    return np.stack([r * np.cos(t), r * np.sin(t), z], axis=1)


def save_cloud_csv(cloud, path):
    np.savetxt(path, np.asarray(cloud), delimiter=",", fmt="%.17g")


def load_cloud_csv(path):
    pts = np.loadtxt(path, delimiter=",", ndmin=2)
    return as_points(pts)
