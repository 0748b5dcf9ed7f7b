"""Scenario-level verification: each scenario binds a construction to
the estimators that probe its quantitative claim and emits a Report.

A report is reproducible from (config, seed): rerunning a scenario
with the same inputs produces byte-identical JSON except for the
wall_time_ms field. A scenario passes only if zero sampled violations
occurred; any violation is recorded with its witness pair. A non-finite
claim or observed value never passes.
"""

import inspect
import json
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import _svg
from . import estimators as E
from . import maps as M
from . import pl as plmod
from .core import largest_singular_values, rotation_matrix, row_norms
from .errors import ConfigError, NoWitnessError
from .profiles import bump_profile

TOOL_VERSION = "0.1.0"


@dataclass
class Report:
    """Machine-readable outcome of one verification scenario."""

    scenario: str
    passed: bool
    claimed: float | None
    observed: float | None
    worst: dict | None
    n_samples: int
    seed: int
    wall_time_ms: float
    tool_version: str = TOOL_VERSION
    details: dict = field(default_factory=dict)

    def to_dict(self):
        return _jsonable(asdict(self))

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True, allow_nan=False)


def _jsonable(x):
    """Recursively strip numpy scalar and array types for JSON output;
    a non-finite float becomes the string "inf", "-inf" or "nan"."""
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, np.ndarray):
        return [_jsonable(v) for v in np.ravel(x)]
    if isinstance(x, (np.bool_, bool)):
        return bool(x)
    if isinstance(x, (np.floating, float)):
        x = float(x)
        return x if np.isfinite(x) else str(x)
    if isinstance(x, (np.integer, int)):
        return int(x)
    return x


# =====================================================================
# Scenario: radial extension bound
# =====================================================================

def verify_radial_bound(phi, cfg, sphere_pairs=200_000):
    """The radial extension of a sphere map with (sampled) chordal
    constant lambda-hat must show no two-point distortion above
    1 + lambda-hat; equal-radius pairs must stay within lambda-hat.
    A map of S^0 (dimension 1) has no nondegenerate same-sphere pair,
    so it is refused with ConfigError before any sampling."""
    t0 = time.perf_counter()
    if phi.dim < 2:
        raise ConfigError(f"radial-bound needs a sphere map of dimension >= 2, got {phi.dim}")
    sphere_est = E.sphere_bilip_lower_bound(phi, cfg.seed, sphere_pairs)
    lam_hat = sphere_est.lambda_lower
    claimed = 1.0 + lam_hat
    fmap = M.radial_extension(phi)
    est = E.bilip_lower_bound(fmap, cfg, op_name="verify_radial_bound")

    # restriction to spheres of any radius: the two-point ratio at radius
    # r equals the chordal ratio of the same directions on the unit
    # sphere, so it can never beat the sphere constant
    x, y, xu, yu = E.equal_radius_pairs(cfg.seed, "verify_radial_equal_radius", phi.dim,
                                        20_000, np.log(0.1), np.log(10.0 * cfg.region.scale))
    eq_max, _ = E.distortion(fmap._eval, x, y)
    lam_sphere = max(lam_hat, E.distortion(phi.apply, xu, yu)[0])

    passed = not (E.refutes(est.lambda_lower, claimed) or E.refutes(eq_max, lam_sphere))
    return Report(
        scenario="radial-bound",
        passed=passed,
        claimed=claimed,
        observed=est.lambda_lower,
        worst=E.worst_pair_record(est.worst_pair),
        n_samples=est.n_pairs_used,
        seed=cfg.seed,
        wall_time_ms=(time.perf_counter() - t0) * 1000.0,
        details={
            "sphere_lambda_lower": lam_sphere,
            "sphere_pairs": sphere_pairs,
            "equal_radius_max_ratio": eq_max,
        },
    )


# =====================================================================
# Scenario: disk replication preserves the constant
# =====================================================================

def verify_replication_constant(g, cfg):
    """The replication of a disk map with constant lambda =
    ``g.lambda_claimed`` must show no distortion above lambda, including
    across disks; a region within reach of one disk has no cross-disk
    pairs, and ``cross_disk_max_ratio`` reads None. A disk map without a
    claim raises ConfigError."""
    t0 = time.perf_counter()
    claimed = g.lambda_claimed
    if claimed is None:
        raise ConfigError("disk map carries no claimed constant")
    fmap = M.disk_replication(g)
    est = E.bilip_lower_bound(fmap, cfg, op_name="verify_replication_constant")

    # dedicated cross-disk pairs: one point in disk i, the other in disk j != i
    n_disks = fmap.disk_count(cfg.region.scale)
    cross_max = None
    if n_disks >= 2:
        x, y = E.cross_disk_pairs(cfg.seed, "verify_replication_cross_disk", fmap,
                                  n_disks, 20_000)
        cross_max, _ = E.distortion(fmap._eval, x, y)

    passed = not (E.refutes(est.lambda_lower, claimed)
                  or cross_max is not None and E.refutes(cross_max, claimed))
    return Report(
        scenario="replication-constant",
        passed=passed,
        claimed=float(claimed),
        observed=est.lambda_lower,
        worst=E.worst_pair_record(est.worst_pair),
        n_samples=est.n_pairs_used,
        seed=cfg.seed,
        wall_time_ms=(time.perf_counter() - t0) * 1000.0,
        details={"cross_disk_max_ratio": cross_max, "disks_in_region": n_disks},
    )


# =====================================================================
# Scenario: replication drift law
# =====================================================================

def verify_replication_drift(g, x0, count=40, threshold=1e6):
    """Drift at the witness 4^k e1 + 2^k x0 equals 2^k ||g(x0) - x0||
    exactly (float rounding only) and exceeds the threshold."""
    t0 = time.perf_counter()
    x0 = np.asarray(x0, dtype=float)
    wit = E.replication_drift_witnesses(g, x0, count)
    fmap = M.disk_replication(g)
    rep = E.drift_profile(fmap, wit, threshold)
    base = float(np.linalg.norm(M.disk_apply(g, x0) - x0))
    expected = base * 2.0 ** np.arange(1, count + 1)
    max_rel = E.max_relative_error(rep.drifts, expected)
    passed = max_rel <= 1e-12 and rep.verdict == E.VERDICT_EXCEEDS
    return Report(
        scenario="replication-drift",
        passed=passed,
        claimed=float(expected[-1]),
        observed=float(rep.drifts[-1]),
        worst=None,
        n_samples=count,
        seed=0,
        wall_time_ms=(time.perf_counter() - t0) * 1000.0,
        details={
            "base_move": base,
            "max_relative_error": max_rel,
            "verdict": rep.verdict,
            "threshold": float(threshold),
        },
    )


# =====================================================================
# Scenario: homomorphism, restriction and monomorphism evidence
# =====================================================================

_HOM_KINDS = ("disk_replication", "translated_replication", "radial")
_DRIFT_COUNT = 30  # witnesses of the drift-class checks


def verify_homomorphism(kind, g, h, cfg, n_points=10_000):
    """construct(g o h) must equal construct(g) o construct(h) pointwise;
    the construction restricted to its core set must reproduce the
    input map; and the drift must grow along the witnesses, except for a
    translated replication (a kernel element of QI(R^n)) or where every
    witness drift is 0, which must read bounded (see E.DriftReport).
    On S^0 the latitude maps are the identity, so a radial kind of
    dimension 1 is refused with ConfigError before any sampling."""
    t0 = time.perf_counter()
    if kind not in _HOM_KINDS:
        raise ConfigError(f"unknown homomorphism kind {kind!r}; pick from {_HOM_KINDS}")
    if kind == "radial" and g.dim < 2:
        raise ConfigError(f"radial homomorphism needs dimension >= 2, got {g.dim}")

    if kind == "radial":
        build = M.radial_extension
        composed_inner = M.compose_sphere_maps(g, h)
    elif kind == "disk_replication":
        build = M.disk_replication
        composed_inner = M.compose_disk_maps(g, h)
    else:
        build = lambda d: M.translated_replication(uniform=d)  # noqa: E731
        composed_inner = M.compose_disk_maps(g, h)

    f_gh = build(composed_inner)
    f_g = build(g)
    f_h = build(h)

    rng = E._op_rng(cfg.seed, "verify_homomorphism")
    n = g.dim
    pts = E._region_points(rng, cfg.region, n_points)
    lhs = f_gh._eval(pts)
    rhs = f_g._eval(f_h._eval(pts))
    residual = float(row_norms(lhs - rhs).max())

    # restriction: the construction agrees with the input on its core set
    core = E._region_points(rng, E.ball((0.0,) * n, 1.0), 1000)
    if kind == "radial":
        core = E._unit_rows(core)
    restr = float(np.abs(f_g._eval(core) - g.apply(core)).max())

    # QI-class evidence: maps at bounded distance are one element of QI(R^n)
    x0 = core[int(np.argmax(row_norms(g.apply(core) - core)))]
    if kind == "radial":
        wit = E.ray_witnesses(x0, _DRIFT_COUNT)
    else:  # the points of replication disks 1..30 over 0.9 x0 / ||x0||
        x0 = 0.9 * x0 / max(np.linalg.norm(x0), 1e-12)
        wit = f_g.disk_points(np.arange(1, _DRIFT_COUNT + 1), x0[None, :])
    rep = E.drift_profile(f_g, wit)
    grows = kind != "translated_replication" and rep.drifts.any()
    expected = E.VERDICT_EXCEEDS if grows else E.VERDICT_BOUNDED

    passed = residual <= 1e-9 and restr <= 1e-12 and rep.verdict == expected
    return Report(
        scenario="homomorphism",
        passed=passed,
        claimed=0.0,
        observed=residual,
        worst=None,
        n_samples=n_points,
        seed=cfg.seed,
        wall_time_ms=(time.perf_counter() - t0) * 1000.0,
        details={
            "kind": kind,
            "composition_residual": residual,
            "restriction_residual": restr,
            "drift_witness": float(rep.drifts[-1]),
            "verdict": rep.verdict,
        },
    )


# =====================================================================
# Scenario: product quasi-isometry parameters
# =====================================================================

_GRID_STEP = 1.0  # of the covering-radius grids
_DENSITY_RADIUS = 3.0  # of the balls whose covering radius is measured


def verify_product_qi(f, f_params, g, g_params, cfg):
    """The product of a (lam, eps) and a (mu, delta) quasi-isometry must
    pass the check with (max(lam, mu), eps + delta) in the product-sum
    metric, satisfy the pointwise drift identity exactly, and stay
    within twice the componentwise covering radius.
    """
    t0 = time.perf_counter()
    (lam, eps), (mu, delta) = f_params, g_params
    nu = max(lam, mu)
    h = M.product_map(f, g)
    qi = E.qi_embedding_check(h, nu, eps + delta, cfg, op_name="verify_product_qi")

    # pointwise drift identity in the product-sum metric
    n = h.dim
    pts = E._region_points(E._op_rng(cfg.seed, "verify_product_drift_identity"),
                           cfg.region, 10_000)
    k = f.dim
    disp = h._displacement(pts)
    lhs = row_norms(disp[:, :k]) + row_norms(disp[:, k:])
    rhs = (row_norms(f._displacement(pts[:, :k]))
           + row_norms(g._displacement(pts[:, k:])))
    drift_err = float(np.abs(lhs - rhs).max() / max(1.0, float(rhs.max())))

    # covering radius of the product vs its components
    c_f = E.c_density(f, E.ball((0.0,) * f.dim, _DENSITY_RADIUS), _GRID_STEP)
    c_g = E.c_density(g, E.ball((0.0,) * g.dim, _DENSITY_RADIUS), _GRID_STEP)
    c_h = E.c_density(h, E.ball((0.0,) * n, _DENSITY_RADIUS), _GRID_STEP)
    c_bound = 2.0 * max(c_f, c_g) + _GRID_STEP * np.sqrt(n)
    density_ok = c_h <= c_bound

    passed = qi.passed and drift_err <= 1e-12 and density_ok
    return Report(
        scenario="product-qi",
        passed=passed,
        claimed=float(nu),
        observed=qi.lambda_lower,
        worst=E.worst_pair_record(qi.worst_pair),
        n_samples=qi.n_pairs_used,
        seed=cfg.seed,
        wall_time_ms=(time.perf_counter() - t0) * 1000.0,
        details={
            "eps_combined": float(eps + delta),
            "drift_identity_error": drift_err,
            "c_density_left": c_f,
            "c_density_right": c_g,
            "c_density_product": c_h,
            "c_density_bound": float(c_bound),
        },
    )


# =====================================================================
# Scenario: spiral bound and kernel behaviour
# =====================================================================

def verify_spiral_bound(p, cfg):
    """A profile with certified entry bound C yields a map with no
    distortion above n*C + 1; equal-radius pairs are isometric; the
    far-field behaviour matches the kernel classification."""
    t0 = time.perf_counter()
    n = p.dim
    fmap = M.spiral_map(p)
    claimed = fmap.lambda_claimed
    est = E.bilip_lower_bound(fmap, cfg, op_name="verify_spiral_bound")

    # same-radius pairs are isometric up to rounding
    lo, hi = E.radius_range(cfg.region)
    x, y, _, _ = E.equal_radius_pairs(cfg.seed, "verify_spiral_equal_radius", n, 20_000,
                                      np.log(lo), np.log(hi) - np.log(lo))
    _, ratios = E.distortion(fmap._eval, x, y)
    eq_worst = float(np.abs(ratios - 1.0).max())

    # kernel classification: compactly supported profiles must stay
    # bounded, far-field rotations must produce growing drift
    kind, _ = p.far_field()
    kernel_detail = {"far_field": kind}
    kernel_ok = True
    if kind == "identity":
        rep = E.drift_profile(fmap, E.ray_witnesses(M.unit_axis(n), _DRIFT_COUNT))
        kernel_ok = rep.verdict == E.VERDICT_BOUNDED
        kernel_detail["verdict"] = rep.verdict
        kernel_detail["max_drift"] = float(rep.drifts.max())
    elif kind == "rotation":
        try:
            wit = E.spiral_drift_witnesses(p, _DRIFT_COUNT)
            rep = E.drift_profile(fmap, wit)
            theta, _ = E.rotation_angle_and_plane(p.matrix(1.0))
            rel = E.max_relative_error(rep.drifts, 2.0 * np.sin(theta / 2.0) * row_norms(wit))
            kernel_ok = rep.verdict == E.VERDICT_EXCEEDS and rel <= 1e-9
            kernel_detail["verdict"] = rep.verdict
            kernel_detail["closed_form_rel_error"] = rel
        except NoWitnessError:
            kernel_detail["verdict"] = "identity-limit"

    passed = not E.refutes(est.lambda_lower, claimed) and eq_worst <= 1e-9 and kernel_ok
    return Report(
        scenario="spiral-bound",
        passed=passed,
        claimed=claimed,
        observed=est.lambda_lower,
        worst=E.worst_pair_record(est.worst_pair),
        n_samples=est.n_pairs_used,
        seed=cfg.seed,
        wall_time_ms=(time.perf_counter() - t0) * 1000.0,
        details={
            "c_bound": p.c_bound,
            "equal_radius_worst_deviation": eq_worst,
            **kernel_detail,
        },
    )


# =====================================================================
# Scenario: matrix norm inequalities
# =====================================================================

def verify_matrix_norms(seed, n_matrices=1000, max_dim=8):
    """||A|| <= ||A||_E <= sqrt(n) ||A|| on random matrices."""
    t0 = time.perf_counter()
    rng = E._op_rng(seed, "verify_matrix_norms")
    dims = rng.integers(1, max_dim + 1, size=n_matrices)
    violations = 0
    worst_gap = np.inf
    for n in range(1, max_dim + 1):
        count = int((dims == n).sum())
        if count == 0:
            continue
        mats = rng.normal(size=(count, n, n))
        ops = largest_singular_values(mats)
        fros = np.sqrt(np.sum(mats * mats, axis=(1, 2)))
        lo_gap = (fros - ops) / fros
        hi_gap = (np.sqrt(n) * ops - fros) / fros
        worst_gap = min(worst_gap, float(lo_gap.min()), float(hi_gap.min()))
        violations += int(
            np.sum(
                (ops > fros * (1.0 + 1e-9))
                | (fros > np.sqrt(n) * ops * (1.0 + 1e-9))
            )
        )
    return Report(
        scenario="matrix-norms",
        passed=violations == 0,
        claimed=0.0,
        observed=float(violations),
        worst=None,
        n_samples=n_matrices,
        seed=seed,
        wall_time_ms=(time.perf_counter() - t0) * 1000.0,
        details={"worst_relative_gap": float(worst_gap), "max_dim": max_dim},
    )


# =====================================================================
# Scenario: intrinsic vs chordal metric on hypersurface clouds
# =====================================================================

# per cloud kind: its builder, its default graph eps, the surface's worst
# ratio of intrinsic to chordal distance (None where it is not known)
# and the relative error allowed on that ratio
_CLOUDS = {
    "circle": (E.circle_cloud, 0.01, np.pi / 2, 0.02),
    "sphere": (E.sphere_cloud, 0.09, np.pi / 2, 0.08),
    "ellipse": (lambda n: E.ellipse_cloud(2.0, 1.0, n), 0.09, None, None),
}


def _cloud_kind(kind):
    if kind not in _CLOUDS:
        raise ConfigError(f"unknown cloud kind {kind!r}; pick from {sorted(_CLOUDS)}")
    return _CLOUDS[kind]


def verify_metric_equivalence(kind, n_points, eps, n_pairs, seed):
    """Graph length over chord stays finite and reproduces the known
    worst ratio of the surface (``_CLOUDS``) within its tolerance; the
    graph length never undercuts the chord."""
    t0 = time.perf_counter()
    build, _, expected_ratio, rel_tol = _cloud_kind(kind)
    cloud = build(n_points)
    graph = E.neighbor_graph(cloud, eps)
    ratio = E.metric_equivalence_ratio(cloud, eps, n_pairs, seed, graph=graph)

    # spot-check delta >= d on explicit pairs, including an antipodal one, in
    # one search from the pairs' first points and point 0 (the graph is connected)
    rng = E._op_rng(seed, "verify_metric_delta_ge_d")
    idx = rng.integers(0, n_points, size=(64, 2))
    dist = E.dijkstra(graph, directed=False, indices=np.append(idx[:, 0], 0))
    undercut = 0.0
    for row, (i, j) in enumerate(idx):
        if i != j:
            chord = float(np.linalg.norm(cloud[i] - cloud[j]))
            undercut = min(undercut, float(dist[row, j]) - chord)
    anti = float(dist[-1, n_points // 2])

    details = {
        "kind": kind,
        "n_points": n_points,
        "eps": eps,
        "max_ratio": ratio,
        "antipodal_graph_length": anti,
        "worst_undercut": float(undercut),
    }
    passed = undercut >= -1e-12 and np.isfinite(ratio)
    if expected_ratio is not None:
        rel = abs(ratio - expected_ratio) / expected_ratio
        details["expected_ratio"] = expected_ratio
        details["ratio_rel_error"] = float(rel)
        passed = passed and rel <= rel_tol
    return Report(
        scenario="metric-equivalence",
        passed=passed,
        claimed=expected_ratio,
        observed=ratio,
        worst=None,
        n_samples=n_pairs,
        seed=seed,
        wall_time_ms=(time.perf_counter() - t0) * 1000.0,
        details=details,
    )


# =====================================================================
# Scenario registry: `bilip verify`, its plots and the default suite
# =====================================================================

# every scenario parameter that a flag or a config file may set, and its type
KEYS = {"seed": int, "pairs": int, "n": int, "beta": float, "c": float,
        "radius": float, "kind": str, "amplitude": float, "resolution": int,
        "displacement": float, "count": int, "threshold": float,
        "profile": str, "angle": float, "cloud": str, "points": int,
        "eps": float, "max_dim": int}


def _typed(key, value):
    """A flag value or config-file text as the type KEYS gives ``key``;
    integers are counts (>= 1), except the seed (>= 0), and floats are
    finite."""
    if key not in KEYS:
        raise ConfigError(f"unknown scenario parameter {key!r}")
    cast = KEYS[key]
    try:
        typed = cast(value)
    except ValueError as exc:
        raise ConfigError(f"{key} must be {cast.__name__}, got {value!r}") from exc
    least = 0 if key == "seed" else 1
    if cast is int and typed < least:
        raise ConfigError(f"{key} must be >= {least}, got {typed}")
    if cast is float and not np.isfinite(typed):
        raise ConfigError(f"{key} must be finite, got {typed}")
    return typed


@dataclass(frozen=True)
class Scenario:
    """One `bilip verify` scenario.

    ``make``'s keyword parameters are the scenario's parameters and
    their defaults. ``make`` builds the map, the region and the
    SamplerConfig and returns (run, subject): ``run()`` calls the
    verifier and returns its reports, and ``plot(subject, path)``, for a
    scenario that has a plot, draws the objects ``make`` built. ``run``
    looks the verifier up by its module-level name when it is called, so
    a wrapper set on this module (the benchmark's tracer, a test's
    monkeypatch) sees every call.
    """

    name: str
    make: object
    plot: object = None

    def build(self, params=None, **fixed):
        """Cast ``params`` (flag or config values) by KEYS, keep those the
        scenario reads, apply the already typed ``fixed`` values and
        build. An unknown parameter or a value of the wrong type raises
        ConfigError, and a value a constructor refuses its ValueError."""
        p = {**{k: _typed(k, v) for k, v in (params or {}).items()}, **fixed}
        reads = inspect.signature(self.make).parameters
        return self.make(**{k: v for k, v in p.items() if k in reads})


def _ratio_histogram(subject, path):
    """Histogram of 2e4 sampled two-point ratios of the map ``m`` on the
    region and with the seed of ``cfg``, for ``subject`` = (m, cfg, title)."""
    m, cfg, title = subject
    chunks = E._pair_chunks(m, replace(cfg, n_pairs=20_000), "cli_ratio_histogram")
    values = np.concatenate([E.distortion(m._eval, x, y)[1] for x, y in chunks])
    _svg.save_svg(_svg.histogram(values, title=title, xlabel="two-point ratio"), path)


def _drift_figure(drifts, title, path):
    """Drift ||f(x_k) - x_k|| against k = 1, 2, ... on a log scale."""
    _svg.save_svg(_svg.line_plot(np.arange(1, len(drifts) + 1), drifts, title=title,
                                 xlabel="k", ylabel="||f(x_k) - x_k||", log_y=True), path)


def _drift_plot(subject, path):
    g, x0, count, threshold = subject
    rep = E.drift_profile(M.disk_replication(g),
                          E.replication_drift_witnesses(g, x0, count), threshold)
    _drift_figure(rep.drifts, "replication drift vs k", path)


def _radial_bound(seed=7, pairs=100_000, n=2, beta=0.5, radius=100.0,
                  sphere_pairs=200_000):
    phi = M.make_latitude_sphere_map(beta, dim=n)
    cfg = E.SamplerConfig(seed=seed, region=E.ball((0.0,) * n, radius), n_pairs=pairs)
    return ((lambda: [verify_radial_bound(phi, cfg, sphere_pairs=sphere_pairs)]),
            (M.radial_extension(phi), cfg, "radial-bound: sampled ratios"))


def _replication_constant(seed=7, pairs=100_000, n=2, kind="twist", radius=300.0,
                          amplitude=0.8, resolution=8, displacement=0.3):
    if kind == "twist":
        g = M.make_twist_disk_map(dim=n, amplitude=amplitude)
    elif kind == "pl":
        g = M.pl_disk_map(plmod.pl_twist_example(n, resolution, displacement))
    else:
        raise ConfigError(f"unknown disk map kind {kind!r}")
    cfg = E.SamplerConfig(seed=seed, region=E.ball((0.0,) * n, radius), n_pairs=pairs)
    return ((lambda: [verify_replication_constant(g, cfg)]),
            (M.disk_replication(g), cfg, "replication-constant: sampled ratios"))


def _replication_drift(n=2, amplitude=0.8, count=40, threshold=1e6):
    E.check_positive("threshold", threshold)
    g = M.make_twist_disk_map(dim=n, amplitude=amplitude)
    x0 = np.zeros(n)
    x0[:2] = 0.3125, -0.25
    subject = (g, x0, count, threshold)
    return (lambda: [verify_replication_drift(*subject)]), subject


def _homomorphism(seed=7, pairs=100_000, n=2, kind="disk_replication", radius=70.0,
                  beta=0.5):
    if kind == "radial":
        g = M.make_latitude_sphere_map(beta, dim=n)
        h = M.make_latitude_sphere_map(-0.3, dim=n)
    else:
        g = M.make_twist_disk_map(dim=n, amplitude=0.8)
        h = M.make_twist_disk_map(dim=n, amplitude=-0.5)
    cfg = E.SamplerConfig(seed=seed, region=E.ball((0.0,) * n, radius), n_pairs=pairs)
    return (lambda: [verify_homomorphism(kind, g, h, cfg, n_points=min(pairs, 10_000))]), None


def _product_qi(seed=7, pairs=100_000, n=2, beta=0.5, c=1.0):
    f = M.radial_extension(M.make_latitude_sphere_map(beta, dim=n))
    g = M.spiral_map(M.LogSpiralProfile(c, (0, 1), n))
    cfg = E.SamplerConfig(seed=seed, region=E.ball((0.0,) * (2 * n), 50.0), n_pairs=pairs)
    return (lambda: [verify_product_qi(f, (f.lambda_claimed, 0.0),
                                       g, (g.lambda_claimed, 0.0), cfg)]), None


def _spiral_bound(seed=7, pairs=100_000, n=2, profile="log", c=1.0, angle=1.0):
    if profile == "log":
        p = M.LogSpiralProfile(c, (0, 1), n)
    elif profile == "cutoff":
        p = M.CutoffRotationProfile(bump_profile(angle, 1.0, 3.0), (0, 1), n)
    elif profile == "constant":
        p = M.ConstantRotationProfile(rotation_matrix((0, 1), angle, n))
    else:
        raise ConfigError(f"unknown profile kind {profile!r}")
    cfg = E.SamplerConfig(seed=seed, region=E.annulus((0.0,) * n, 1e-3, 1e4), n_pairs=pairs)
    return ((lambda: [verify_spiral_bound(p, cfg)]),
            (M.spiral_map(p), cfg, "spiral-bound: sampled ratios"))


def _matrix_norms(seed=7, count=1000, max_dim=8):
    if max_dim > 16:  # the dimensions core's linear algebra is meant for
        raise ConfigError(f"max_dim must be <= 16, got {max_dim}")
    return (lambda: [verify_matrix_norms(seed, count, max_dim)]), None


def _metric_equivalence(seed=7, pairs=100_000, cloud="circle", points=10_000, eps=None):
    if points < 2:
        raise ConfigError(f"points must be >= 2, got {points}")
    eps = _cloud_kind(cloud)[1] if eps is None else eps
    E.check_positive("eps", eps)
    return (lambda: [verify_metric_equivalence(cloud, points, eps, pairs, seed)]), None


def _all(seed=7, pairs=100_000):
    return (lambda: default_suite(seed, pairs)), None


SCENARIOS = {s.name: s for s in (
    Scenario("radial-bound", _radial_bound, _ratio_histogram),
    Scenario("replication-constant", _replication_constant, _ratio_histogram),
    Scenario("replication-drift", _replication_drift, _drift_plot),
    Scenario("homomorphism", _homomorphism),
    Scenario("product-qi", _product_qi),
    Scenario("spiral-bound", _spiral_bound, _ratio_histogram),
    Scenario("matrix-norms", _matrix_norms),
    Scenario("metric-equivalence", _metric_equivalence),
    Scenario("all", _all),
)}

# the default suite: one entry per proven bound, at reduced sizes
SUITE = (
    ("radial-bound", {"sphere_pairs": 50_000}),
    ("replication-constant", {}),
    ("replication-constant", {"kind": "pl"}),
    ("replication-drift", {}),
    ("homomorphism", {}),
    ("product-qi", {}),
    ("spiral-bound", {}),
    ("spiral-bound", {"profile": "cutoff"}),
    ("spiral-bound", {"profile": "constant", "angle": 2.0}),
    ("matrix-norms", {}),
    # pairs within 2% of the antipodal ratio occur with probability
    # ~0.02 each, so 1500 samples miss them only with probability e^-30
    ("metric-equivalence", {"points": 4000, "pairs": 1500}),
)


def default_suite(seed=7, n_pairs=100_000):
    """Run every bound through at least one scenario at reduced sizes.

    Returns the list of reports in a fixed order.
    """
    reports = []
    for name, fixed in SUITE:
        run, _ = SCENARIOS[name].build({"seed": seed, "pairs": n_pairs}, **fixed)
        reports += run()
    return reports
