"""Command-line interface.

Subcommands::

    bilip verify <scenario> [--config FILE] [scenario flags] [--out F] [--svg F]
    bilip estimate --map FILE --region SPEC --pairs N --seed S [--claim L]
    bilip drift --map FILE --witnesses {replication,spiral,ray} -K 40 [...]
    bilip pl-norm --plmap FILE.csv
    bilip geodesic --cloud FILE.csv --pairs N [--eps E] [--pair I J]

Every command prints one JSON object per result (newline-delimited when
batched) and optionally writes it to --out; --svg emits a plot (drift
vs k on a log scale, or a histogram of sampled two-point ratios). The
environment variable BILIP_SEED overrides the default seed.

``estimate --claim L`` judges the claim on the same pairs as
``lambda_lower``, drawn and evaluated once: ``violated`` holds exactly
when ``lambda_lower > L (1 + estimators.REFUTATION_SLACK)``, and then
``violation`` is the bound's ``worst_pair``.

Exit status:

* 0: every report passed, every claim survived.
* 1: a scenario failed or ``estimate --claim`` found a violating pair.
* 2: usage error, before any sampling: a bad flag or config value (a
  count below 1, a negative seed, a value a constructor refuses), a
  config key no scenario knows, ``--svg`` on a scenario without a plot,
  a map or PL file that cannot be read or parsed, an ``estimate``
  region whose dimension is not the map's, ``--pairs`` below 1 or
  ``--claim`` below 1, a ``drift`` count ``-K`` below 1, a ``drift
  --x0`` that is not the map's dimension in finite numbers, or one
  outside the open unit ball for replication witnesses. Apart from
  argparse's own messages, a usage error prints one ``error:`` line on
  stderr and nothing on stdout.

Non-finite numbers in a record (an infinite bound, a NaN ratio) are
written as the strings ``"inf"``, ``"-inf"`` and ``"nan"``, so every
record is strict JSON.

Config files are flat key-value text: one ``key = value`` per line,
``#`` comments; keys match the long flag names with dashes or
underscores. Flags given on the command line win over the file. The
scenarios, their parameters and their plots are the registry
``verify.SCENARIOS``; a flag a scenario does not read is ignored.
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
from .core import as_vector
from .errors import BilipError, ConfigError, InvalidPointError, MapFormatError
from .mapformat import load_map, map_to_text


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
    text = json.dumps(V._jsonable(obj), sort_keys=True, allow_nan=False)
    sys.stdout.write(text + "\n")
    if out_path:
        with open(out_path, "a", encoding="utf-8") as fh:
            fh.write(text + "\n")


# =====================================================================
# verify
# =====================================================================

def _cmd_verify(args):
    scenario = V.SCENARIOS[args.scenario]
    if args.svg and scenario.plot is None:
        raise ConfigError(f"scenario {scenario.name} has no plot for --svg")
    params = {"seed": _default_seed()}
    if args.config:
        params.update(parse_config_file(args.config))
    params.update((key, getattr(args, key)) for key in V.KEYS
                  if getattr(args, key) is not None)
    run, subject = scenario.build(params)
    reports = run()
    for rep in reports:
        _emit(rep.to_dict(), args.out)
    if args.svg:
        scenario.plot(subject, args.svg)
    return 0 if all(rep.passed for rep in reports) else 1


# =====================================================================
# estimate / drift / pl-norm / geodesic
# =====================================================================

def _cmd_estimate(args):
    m = load_map(args.map)
    region = parse_region(args.region, m.dim)
    if region.dim != m.dim:
        raise ConfigError(f"region dimension {region.dim} != map dimension {m.dim}")
    if args.claim is not None and not args.claim >= 1.0:
        raise ConfigError(f"a bi-Lipschitz constant is >= 1, got --claim {args.claim}")
    try:
        cfg = E.SamplerConfig(seed=args.seed, region=region, n_pairs=args.pairs)
    except InvalidPointError as exc:
        raise ConfigError(str(exc)) from exc
    t0 = time.perf_counter()
    est = E.bilip_lower_bound(m, cfg)
    elapsed = (time.perf_counter() - t0) * 1000.0
    record = {"op": "estimate", "map": map_to_text(m), **est.record(), "elapsed_ms": elapsed}
    code = 0
    if args.claim is not None:
        # judged on the pairs that gave the bound: its worst pair is the
        # first pair beyond the claim whenever the bound refutes it
        violated = est.lambda_lower > E.refutation_floor(args.claim)
        record["claim"] = args.claim
        record["violated"] = violated
        if violated:
            record["violation"] = record["worst_pair"]
            code = 1
    _emit(record, args.out)
    if args.svg:
        V._ratio_histogram((m, cfg, "sampled two-point ratios"), args.svg)
    return code


def _parse_x0(text, dim):
    """The ``--x0`` base point: ``dim`` finite comma-separated numbers."""
    try:
        return as_vector([float(v) for v in text.split(",")], dim=dim)
    except ValueError as exc:  # not a number, not finite or the wrong dimension
        raise ConfigError(f"bad --x0 {text!r} for a {dim}-d map: {exc}") from exc


def _cmd_drift(args):
    if args.count < 1:
        raise ConfigError(f"-K must be at least 1, got {args.count}")
    m = load_map(args.map)
    threshold = args.threshold
    if args.witnesses == "replication":
        if not isinstance(m, M.DiskReplicationMap):
            raise ConfigError("replication witnesses need a disk_replication map")
        try:
            wit = E.replication_drift_witnesses(m.disk_map, _parse_x0(args.x0, m.dim),
                                                args.count)
        except InvalidPointError as exc:  # x0 outside the open unit ball
            raise ConfigError(f"bad --x0 {args.x0!r}: {exc}") from exc
    elif args.witnesses == "spiral":
        if not isinstance(m, M.SpiralMap):
            raise ConfigError("spiral witnesses need a spiral map")
        wit = E.spiral_drift_witnesses(m.profile, args.count)
    else:  # ray
        x0 = _parse_x0(args.x0, m.dim)
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
    p.add_argument("scenario", choices=V.SCENARIOS)
    p.add_argument("--config", help="flat key=value config file")
    for key, cast in V.KEYS.items():
        p.add_argument(f"--{key.replace('_', '-')}", dest=key, type=cast)
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
                   help="judge this claimed constant on the sampled pairs")
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
        # non-finite values are results (an infinite bound, a NaN ratio),
        # reported in the record, so numpy's warnings about them are noise
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
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
