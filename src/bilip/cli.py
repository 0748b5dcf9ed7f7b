"""Command-line interface.

Subcommands::

    bilip verify <scenario> [--config FILE] [scenario flags] [--out F] [--svg F]
    bilip estimate --map FILE --region SPEC --pairs N --seed S [--claim L]
    bilip drift --map FILE --witnesses {replication,spiral,ray} -K 40 [...]
    bilip pl-norm --plmap FILE.csv
    bilip geodesic --cloud FILE.csv --pairs N [--eps E] [--pair I J]

Every command prints one JSON object per result (newline-delimited when
batched) and optionally writes it to --out; --svg emits a plot (drift
vs k on a log scale, or a histogram of sampled two-point ratios). Exit
status: 0 pass, 1 fail, 2 usage error. The environment variable
BILIP_SEED overrides the default seed.

Config files are flat key-value text: one ``key = value`` per line,
``#`` comments; keys match the long flag names with dashes or
underscores. Flags given on the command line win over the file.
"""

import argparse
import json
import os
import sys
import time

import numpy as np

from . import _svg
from . import estimators as E
from . import maps as M
from . import pl as plmod
from . import verify as V
from .errors import BilipError, ConfigError, MapFormatError
from .mapformat import load_map, map_to_text
from .profiles import bump_profile

SCENARIOS = (
    "radial-bound",
    "replication-constant",
    "replication-drift",
    "homomorphism",
    "product-qi",
    "spiral-bound",
    "matrix-norms",
    "metric-equivalence",
    "all",
)


def _default_seed():
    env = os.environ.get("BILIP_SEED")
    try:
        return int(env) if env else 7
    except ValueError as exc:
        raise ConfigError(f"BILIP_SEED must be an integer, got {env!r}") from exc


def parse_config_file(path):
    """Flat key-value config: ``key = value`` lines, # comments."""
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, _, val = line.partition("=")
            values[key.strip().replace("-", "_")] = val.strip()
    return values


def parse_region(spec, dim):
    """Region syntax: ball:cx,cy,...:R | box:lo1,lo2,..:hi1,hi2,.. |
    annulus:r_inner:r_outer (centered at the origin)."""
    parts = spec.split(":")
    kind = parts[0]
    try:
        if kind == "ball":
            center = [float(x) for x in parts[1].split(",")]
            return E.ball(center, float(parts[2]))
        if kind == "box":
            lo = [float(x) for x in parts[1].split(",")]
            hi = [float(x) for x in parts[2].split(",")]
            return E.box(lo, hi)
        if kind == "annulus":
            return E.annulus((0.0,) * dim, float(parts[1]), float(parts[2]))
    except (IndexError, ValueError) as exc:
        raise ConfigError(f"bad region spec {spec!r}: {exc}") from exc
    raise ConfigError(f"unknown region kind {kind!r}")


def _emit(obj, out_path):
    text = json.dumps(V._jsonable(obj), sort_keys=True)
    sys.stdout.write(text + "\n")
    if out_path:
        with open(out_path, "a", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _ratio_histogram(m, region, seed, path, title):
    cfg = E.SamplerConfig(seed=seed, region=region, n_pairs=20_000)
    ratios = []
    for x, y in E._pair_chunks(m, cfg, "cli_ratio_histogram"):
        d = np.linalg.norm(x - y, axis=1)
        keep = d >= 1e-12
        df = np.linalg.norm(m._eval(x[keep]) - m._eval(y[keep]), axis=1)
        ratios.append(df / d[keep])
    values = np.concatenate(ratios)
    _svg.save_svg(_svg.histogram(values, title=title, xlabel="two-point ratio"), path)


# =====================================================================
# verify
# =====================================================================

def _merge_params(args, config_path, keys):
    """Config-file values, overridden by explicit command-line flags."""
    merged = {}
    if config_path:
        merged.update(parse_config_file(config_path))
    for key in keys:
        val = getattr(args, key, None)
        if val is not None:
            merged[key] = val
    return merged


def _get(params, key, cast, default):
    if key in params and params[key] is not None:
        return cast(params[key])
    return default


def _run_scenario(name, params):
    seed = _get(params, "seed", int, _default_seed())
    pairs = _get(params, "pairs", int, 100_000)
    n = _get(params, "n", int, 2)

    if name == "radial-bound":
        beta = _get(params, "beta", float, 0.5)
        radius = _get(params, "radius", float, 100.0)
        phi = M.make_latitude_sphere_map(beta, dim=n)
        cfg = E.SamplerConfig(seed=seed, region=E.ball((0.0,) * n, radius),
                              n_pairs=pairs)
        return [V.verify_radial_bound(phi, cfg)]
    if name == "replication-constant":
        kind = _get(params, "kind", str, "twist")
        radius = _get(params, "radius", float, 300.0)
        if kind == "twist":
            g = M.make_twist_disk_map(dim=n,
                                      amplitude=_get(params, "amplitude", float, 0.8))
        elif kind == "pl":
            g = M.pl_disk_map(plmod.pl_twist_example(
                n, _get(params, "resolution", int, 8),
                _get(params, "displacement", float, 0.3)))
        else:
            raise ConfigError(f"unknown disk map kind {kind!r}")
        cfg = E.SamplerConfig(seed=seed, region=E.ball((0.0,) * n, radius),
                              n_pairs=pairs)
        return [V.verify_replication_constant(g, cfg)]
    if name == "replication-drift":
        g = M.make_twist_disk_map(dim=n,
                                  amplitude=_get(params, "amplitude", float, 0.8))
        x0 = np.zeros(n)
        x0[0] = 0.3125
        x0[1] = -0.25
        count = _get(params, "count", int, 40)
        threshold = _get(params, "threshold", float, 1e6)
        return [V.verify_replication_drift(g, x0, count, threshold)]
    if name == "homomorphism":
        kind = _get(params, "kind", str, "disk_replication")
        radius = _get(params, "radius", float, 70.0)
        if kind == "radial":
            g = M.make_latitude_sphere_map(_get(params, "beta", float, 0.5), dim=n)
            h = M.make_latitude_sphere_map(-0.3, dim=n)
        else:
            g = M.make_twist_disk_map(dim=n, amplitude=0.8)
            h = M.make_twist_disk_map(dim=n, amplitude=-0.5)
        cfg = E.SamplerConfig(seed=seed, region=E.ball((0.0,) * n, radius),
                              n_pairs=pairs)
        return [V.verify_homomorphism(kind, g, h, cfg,
                                      n_points=min(pairs, 10_000))]
    if name == "product-qi":
        beta = _get(params, "beta", float, 0.5)
        c = _get(params, "c", float, 1.0)
        phi = M.make_latitude_sphere_map(beta, dim=n)
        f = M.radial_extension(phi)
        g = M.spiral_map(M.LogSpiralProfile(c, (0, 1), n))
        cfg = E.SamplerConfig(seed=seed, region=E.ball((0.0,) * (2 * n), 50.0),
                              n_pairs=pairs)
        return [V.verify_product_qi(f, (1.0 + phi.lambda_claimed, 0.0),
                                    g, (n * abs(c) + 1.0, 0.0), cfg)]
    if name == "spiral-bound":
        profile_kind = _get(params, "profile", str, "log")
        if profile_kind == "log":
            p = M.LogSpiralProfile(_get(params, "c", float, 1.0), (0, 1), n)
        elif profile_kind == "cutoff":
            p = M.CutoffRotationProfile(
                bump_profile(_get(params, "angle", float, 1.0), 1.0, 3.0), (0, 1), n)
        elif profile_kind == "constant":
            from .core import rotation_matrix

            p = M.ConstantRotationProfile(
                rotation_matrix((0, 1), _get(params, "angle", float, 1.0), n))
        else:
            raise ConfigError(f"unknown profile kind {profile_kind!r}")
        cfg = E.SamplerConfig(seed=seed,
                              region=E.annulus((0.0,) * n, 1e-3, 1e4),
                              n_pairs=pairs)
        return [V.verify_spiral_bound(p, cfg)]
    if name == "matrix-norms":
        return [V.verify_matrix_norms(seed, _get(params, "count", int, 1000),
                                      _get(params, "max_dim", int, 8))]
    if name == "metric-equivalence":
        kind = _get(params, "cloud", str, "circle")
        n_points = _get(params, "points", int, 10_000)
        eps = _get(params, "eps", float, 0.01 if kind == "circle" else 0.09)
        expected = {"circle": float(np.pi / 2), "sphere": float(np.pi / 2)}.get(kind)
        tol = 0.02 if kind == "circle" else 0.08
        return [V.verify_metric_equivalence(kind, n_points, eps, pairs, seed,
                                            expected_ratio=expected, rel_tol=tol)]
    if name == "all":
        return V.default_suite(seed=seed, n_pairs=pairs)
    raise ConfigError(f"unknown scenario {name!r}")


_SCENARIO_KEYS = ("seed", "pairs", "n", "beta", "c", "radius", "kind",
                  "amplitude", "resolution", "displacement", "count",
                  "threshold", "profile", "angle", "cloud", "points",
                  "eps", "max_dim")


def _cmd_verify(args):
    params = _merge_params(args, args.config, _SCENARIO_KEYS)
    reports = _run_scenario(args.scenario, params)
    all_passed = True
    for rep in reports:
        _emit(rep.to_dict(), args.out)
        all_passed &= rep.passed
    if args.svg and args.scenario not in ("matrix-norms", "all"):
        _scenario_svg(args.scenario, params, reports, args.svg)
    return 0 if all_passed else 1


def _scenario_svg(name, params, reports, path):
    seed = _get(params, "seed", int, _default_seed())
    n = _get(params, "n", int, 2)
    if name == "replication-drift":
        count = _get(params, "count", int, 40)
        g = M.make_twist_disk_map(dim=n, amplitude=_get(params, "amplitude", float, 0.8))
        x0 = np.zeros(n)
        x0[0], x0[1] = 0.3125, -0.25
        wit = E.replication_drift_witnesses(g, x0, count)
        rep = E.drift_profile(M.disk_replication(g), wit,
                              _get(params, "threshold", float, 1e6))
        svg = _svg.line_plot(np.arange(1, count + 1), rep.drifts,
                             title="replication drift vs k", xlabel="k",
                             ylabel="||f(x_k) - x_k||", log_y=True)
        _svg.save_svg(svg, path)
        return
    builders = {
        "radial-bound": lambda: (M.radial_extension(
            M.make_latitude_sphere_map(_get(params, "beta", float, 0.5), dim=n)),
            E.ball((0.0,) * n, _get(params, "radius", float, 100.0))),
        "replication-constant": lambda: (M.disk_replication(
            M.make_twist_disk_map(dim=n)),
            E.ball((0.0,) * n, _get(params, "radius", float, 300.0))),
        "spiral-bound": lambda: (M.spiral_map(
            M.LogSpiralProfile(_get(params, "c", float, 1.0), (0, 1), n)),
            E.annulus((0.0,) * n, 1e-3, 1e4)),
    }
    if name in builders:
        m, region = builders[name]()
        _ratio_histogram(m, region, seed, path, f"{name}: sampled ratios")


# =====================================================================
# estimate / drift / pl-norm / geodesic
# =====================================================================

def _cmd_estimate(args):
    m = load_map(args.map)
    region = parse_region(args.region, m.dim)
    cfg = E.SamplerConfig(seed=args.seed, region=region, n_pairs=args.pairs)
    t0 = time.perf_counter()
    est = E.bilip_lower_bound(m, cfg)
    elapsed = (time.perf_counter() - t0) * 1000.0
    record = {
        "op": "estimate",
        "map": map_to_text(m),
        "seed": est.seed,
        "n_pairs": est.n_pairs_used,
        "lambda_lower": est.lambda_lower,
        "worst_pair": est.record()["worst_pair"],
        "elapsed_ms": elapsed,
    }
    code = 0
    if args.claim is not None:
        witness = E.falsify_bilip_bound(m, args.claim, cfg)
        record["claim"] = args.claim
        record["violated"] = witness is not None
        if witness is not None:
            record["violation"] = {
                "x": [float(v) for v in witness[0]],
                "y": [float(v) for v in witness[1]],
                "ratio": witness[2],
            }
            code = 1
    _emit(record, args.out)
    if args.svg:
        _ratio_histogram(m, region, args.seed, args.svg, "sampled two-point ratios")
    return code


def _cmd_drift(args):
    m = load_map(args.map)
    threshold = args.threshold
    if args.witnesses == "replication":
        if not isinstance(m, M.DiskReplicationMap):
            raise ConfigError("replication witnesses need a disk_replication map")
        x0 = np.array([float(v) for v in args.x0.split(",")])
        wit = E.replication_drift_witnesses(m.disk_map, x0, args.count)
    elif args.witnesses == "spiral":
        if not isinstance(m, M.SpiralMap):
            raise ConfigError("spiral witnesses need a spiral map")
        wit = E.spiral_drift_witnesses(m.profile, args.count)
    else:  # ray
        x0 = np.array([float(v) for v in args.x0.split(",")])
        ks = np.arange(1, args.count + 1)
        wit = (2.0 ** ks)[:, None] * x0[None, :]
    rep = E.drift_profile(m, wit, threshold)
    record = {
        "op": "drift",
        "map": map_to_text(m),
        "witness_kind": args.witnesses,
        "count": int(rep.drifts.shape[0]),
        "threshold": threshold,
        "drifts": [float(d) for d in rep.drifts],
        "verdict": rep.verdict,
    }
    _emit(record, args.out)
    if args.svg:
        svg = _svg.line_plot(np.arange(1, len(rep.drifts) + 1), rep.drifts,
                             title="drift along witness sequence", xlabel="k",
                             ylabel="||f(x_k) - x_k||", log_y=True)
        _svg.save_svg(svg, args.svg)
    if args.expect is not None:
        want = E.VERDICT_EXCEEDS if args.expect == "exceeds" else E.VERDICT_BOUNDED
        return 0 if rep.verdict == want else 1
    return 0


def _cmd_pl_norm(args):
    f = plmod.load_plmap_csv(args.plmap)
    norm, argmax = plmod.pl_differential_norm(f, with_argmax=True)
    record = {
        "op": "pl-norm",
        "plmap": args.plmap,
        "n_simplices": int(f.triangulation.n_simplices),
        "differential_norm": norm,
        "argmax_simplex": argmax,
        "bilip_constant": plmod.pl_bilip_constant(f),
    }
    _emit(record, args.out)
    return 0


def _cmd_geodesic(args):
    cloud = E.load_cloud_csv(args.cloud)
    n_points = cloud.shape[0]
    if args.pair is not None and not all(0 <= k < n_points for k in args.pair):
        raise ConfigError(f"--pair {args.pair[0]} {args.pair[1]} is out of range "
                          f"for a cloud of {n_points} points")
    eps = args.eps
    if eps is None:
        # connect each point to a handful of neighbors by default
        from scipy.spatial import cKDTree

        d, _ = cKDTree(cloud).query(cloud, k=2)
        eps = float(4.0 * d[:, 1].max())
    record = {
        "op": "geodesic",
        "cloud": args.cloud,
        "n_points": n_points,
        "eps": eps,
        "max_ratio": E.metric_equivalence_ratio(cloud, eps, args.pairs, args.seed),
    }
    if args.pair is not None:
        i, j = args.pair
        geo = E.geodesic_estimate(cloud, eps, i, j)
        chord = float(np.linalg.norm(cloud[i] - cloud[j]))
        record["pair"] = {"i": i, "j": j, "graph_length": geo, "chord": chord}
    _emit(record, args.out)
    return 0


# =====================================================================
# entry points
# =====================================================================

def _build_parser():
    top = argparse.ArgumentParser(prog="bilip",
                                  description="verify and estimate quantitative "
                                              "bounds of explicit bi-Lipschitz maps")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run a verification scenario")
    p.add_argument("scenario", choices=SCENARIOS)
    p.add_argument("--config", help="flat key=value config file")
    for key in ("seed", "pairs", "n", "resolution", "count", "points", "max_dim"):
        p.add_argument(f"--{key.replace('_', '-')}", dest=key, type=int)
    for key in ("beta", "c", "radius", "amplitude", "displacement",
                "threshold", "angle", "eps"):
        p.add_argument(f"--{key}", dest=key, type=float)
    for key in ("kind", "profile", "cloud"):
        p.add_argument(f"--{key}", dest=key)
    p.add_argument("--out", help="append the JSON report to this file")
    p.add_argument("--svg", help="write a plot for the scenario")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("estimate", help="sampled bi-Lipschitz lower bound")
    p.add_argument("--map", required=True, help="canonical map text file")
    p.add_argument("--region", required=True,
                   help="ball:cx,..:R | box:lo,..:hi,.. | annulus:rin:rout")
    p.add_argument("--pairs", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=_default_seed())
    p.add_argument("--claim", type=float,
                   help="also try to falsify this claimed constant")
    p.add_argument("--out")
    p.add_argument("--svg")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("drift", help="drift along a witness sequence")
    p.add_argument("--map", required=True)
    p.add_argument("--witnesses", choices=("replication", "spiral", "ray", "psi"),
                   default="ray",
                   help="witness family (psi is accepted as an alias of "
                        "replication)")
    p.add_argument("-K", "--count", dest="count", type=int, default=40)
    p.add_argument("--x0", default="0.3125,-0.25",
                   help="base point for replication/ray witnesses")
    p.add_argument("--threshold", type=float, default=1e6)
    p.add_argument("--expect", choices=("exceeds", "bounded"))
    p.add_argument("--out")
    p.add_argument("--svg")
    p.set_defaults(func=_cmd_drift)

    p = sub.add_parser("pl-norm", help="exact PL differential norm from CSV")
    p.add_argument("--plmap", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_pl_norm)

    p = sub.add_parser("geodesic", help="graph length metric on a point cloud")
    p.add_argument("--cloud", required=True, help="CSV of row points")
    p.add_argument("--pairs", type=int, default=200)
    p.add_argument("--eps", type=float)
    p.add_argument("--seed", type=int, default=_default_seed())
    p.add_argument("--pair", nargs=2, type=int, metavar=("I", "J"))
    p.add_argument("--out")
    p.set_defaults(func=_cmd_geodesic)
    return top


def run_cli(argv=None):
    """Parse arguments and run one subcommand; returns the exit code
    (0 pass, 1 fail, 2 usage error)."""
    try:
        # the parser's seed defaults read BILIP_SEED, which may be malformed
        args = _build_parser().parse_args(argv)
        if getattr(args, "witnesses", None) == "psi":
            args.witnesses = "replication"
        return int(args.func(args))
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 2
    except BilipError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2 if isinstance(exc, (ConfigError, MapFormatError)) else 1
    except FileNotFoundError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def console_entry():
    sys.exit(run_cli())


if __name__ == "__main__":
    console_entry()
