"""The benchmark's workloads: inputs made from a seed, the jobs that
run them through bilip, and the checks that every job's output is
correct.

Each workload is a closed loop with one client: the next job starts
when the previous one has returned. Jobs come in rounds, and every
round holds each kind of job of the workload once, so a run that
stops after whole rounds always has the same mix of job kinds. That
keeps the median and tail comparable between runs and seeds.

A job is ``(kind, run, check)``. ``run()`` is the timed call into
bilip; ``check(out)`` runs afterwards, untimed, and returns
``(items, problems)``: the work items the job did (sampled pairs or
PL points) and a list of failed checks, empty when the output is
correct.
"""

import contextlib
import io
import json
import math
from functools import partial

import numpy as np

import bilip
from bilip import cli
from bilip import maps as M
from bilip import pl as P

REL = 1e-6  # relative slack on proven and exact constants


def _shear(s):
    """Largest singular value of the shear [[1, s], [0, 1]]: the exact
    distortion of a log spiral with rate s, and of a twist whose
    weighted angle derivative sup |r theta'(r)| is s."""
    return (s + math.sqrt(s * s + 4.0)) / 2.0


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run_cli(argv)
    return code, out.getvalue(), err.getvalue()


def _records(stdout):
    return [json.loads(line) for line in stdout.splitlines() if line.strip()]


class Estimate:
    """``bilip estimate`` with a claim, in process, on three maps.

    Why: the user's "break this constant" path. The pair stream, node
    evaluation and the estimator reduction do almost all the work;
    mapformat and cli are exercised; core, pl and the graph code idle.
    """

    name = "estimate"
    # (kind, proven claim?) in round order; every map meets both claims
    ROUND = (("radial", True), ("twist", False), ("spiral", True),
             ("radial", False), ("twist", True), ("spiral", False))
    VARIANTS = 4  # map files per kind, drawn from the seed at set-up
    # pairs per kind: each job takes about the same time at the commit
    # that defined the benchmark, so the median and the tail fall inside
    # one population of jobs instead of on the edge between two kinds
    PAIRS = {"radial": 200_000, "twist": 250_000, "spiral": 320_000}

    def __init__(self, seed, workdir, small):
        self.pairs = {k: v // 10 if small else v for k, v in self.PAIRS.items()}
        rng = np.random.default_rng([seed, 0])
        self.maps = {}
        for kind in ("radial", "twist", "spiral"):
            self.maps[kind] = [self._build(kind, rng, workdir, v)
                               for v in range(self.VARIANTS)]
        self.rng = np.random.default_rng([seed, 1])

    @staticmethod
    def _build(kind, rng, workdir, v):
        """A map, its region, its proven claim, a known-false claim and
        the exact constant the lower bound may not beat (or None)."""
        if kind == "radial":
            beta = rng.uniform(0.3, 0.6)
            m = M.radial_extension(M.make_latitude_sphere_map(beta, dim=3))
            # meridian pairs at a pole stretch by 1 + beta
            false_claim, exact, region = 1.0 + beta / 2.0, None, "ball:0,0,0:100"
        elif kind == "twist":
            amp = rng.uniform(0.5, 0.9)
            m = M.disk_replication(M.make_twist_disk_map(dim=2, amplitude=amp))
            s = m.lambda_claimed / 2.0 - 1.0  # the claim is 2 (1 + s)
            false_claim, exact, region = 1.0 + (_shear(s) - 1.0) / 2.0, None, "ball:0,0:300"
        else:
            c = rng.uniform(0.5, 1.5)
            m = M.spiral_map(M.LogSpiralProfile(c, (0, 1), 2))
            false_claim, exact, region = 1.0 + (_shear(c) - 1.0) / 2.0, _shear(c), "annulus:1e-3:1e4"
        path = workdir / f"{kind}-{v}.map"
        bilip.save_map(m, str(path))
        return m, str(path), region, m.lambda_claimed, false_claim, exact

    def round(self):
        jobs = []
        for kind, proven in self.ROUND:
            m, path, region, claim_ok, claim_bad, exact = \
                self.maps[kind][int(self.rng.integers(self.VARIANTS))]
            claim = claim_ok if proven else claim_bad
            argv = ["estimate", "--map", path, "--region", region,
                    "--pairs", str(self.pairs[kind]), "--seed",
                    str(int(self.rng.integers(1, 2 ** 31))), "--claim", repr(claim)]
            jobs.append((f"{kind}-{'proven' if proven else 'false'}",
                         partial(_run_cli, argv),
                         partial(self._check, m, claim, proven, exact, self.pairs[kind])))
        return jobs

    @staticmethod
    def _check(m, claim, proven, exact, pairs, out):
        code, stdout, stderr = out
        problems = []
        recs = _records(stdout)
        if len(recs) != 1:
            return 0, [f"expected one record, got {len(recs)}: {stderr.strip()}"]
        rec = recs[0]
        if proven:
            if code != 0 or rec.get("violated"):
                problems.append(f"proven claim {claim} refuted (exit {code})")
        elif code != 1 or "violation" not in rec:
            problems.append(f"false claim {claim} survived (exit {code})")
        else:
            x = np.array(rec["violation"]["x"])
            y = np.array(rec["violation"]["y"])
            r = (np.linalg.norm(bilip.evaluate(m, x) - bilip.evaluate(m, y))
                 / np.linalg.norm(x - y))
            if not max(r, 1.0 / r) > claim:
                problems.append(f"witness ratio {r} does not beat claim {claim}")
        if exact is not None and rec["lambda_lower"] > exact * (1.0 + REL):
            problems.append(f"lower bound {rec['lambda_lower']} beats exact {exact}")
        # the estimate and the falsification each draw the whole stream
        return 2 * pairs, problems


class VerifyAll:
    """``bilip verify all`` at its default 1e5 pairs, in process.

    Why: the default broad mix. Fixed-size side work (sphere pairs,
    cross-disk samples, c_density k-d trees, matrix norms, Dijkstra,
    JSON) is a large share, so a regression in any minor layer shows
    here and a pair-stream gain shows smaller than on ``estimate``.
    """

    name = "verify-all"
    REPORTS = 11
    # scenarios whose n_samples counts pairs drawn from the pair stream;
    # the others count matrices, points or graph pairs, not sampled pairs
    PAIR_SCENARIOS = {"radial-bound", "replication-constant", "product-qi", "spiral-bound"}

    def __init__(self, seed, workdir, small):
        self.extra = ["--pairs", "5000"] if small else []
        self.rng = np.random.default_rng([seed, 1])

    def round(self):
        argv = ["verify", "all", "--seed",
                str(int(self.rng.integers(1, 2 ** 31)))] + self.extra
        return [("all", partial(_run_cli, argv), self._check)]

    def _check(self, out):
        code, stdout, stderr = out
        recs = _records(stdout)
        problems = []
        if code != 0:
            problems.append(f"exit {code}: {stderr.strip()}")
        if len(recs) != self.REPORTS:
            problems.append(f"expected {self.REPORTS} reports, got {len(recs)}")
        problems += [f"{r['scenario']} failed" for r in recs if r.get("passed") is not True]
        # stream pairs, plus the sphere pairs of radial-bound
        pairs = sum(int(r["n_samples"]) + int(r["details"].get("sphere_pairs", 0))
                    for r in recs if r["scenario"] in self.PAIR_SCENARIOS)
        return pairs, problems


class PL:
    """Fresh PL twists: exact constant, forward and inverse evaluation.

    Why: core and pl do nearly all the work and the pair stream none,
    so pair-stream changes should leave it unchanged. It uses pl both
    vectorised (forward) and per point in Python (inverse), and
    ``pl_bilip_constant`` on near-isometries is the regime where the
    singular-value iteration converges slowest.
    """

    name = "pl"
    # dimension -> (resolution, forward points, inverse points); the
    # sizes give the 2-d and the 3-d job about the same time
    CASES = {2: (16, 50_000, 1_000), 3: (4, 50_000, 400)}
    SMALL = {2: (4, 2_000, 50), 3: (2, 2_000, 20)}
    OFFSET = 1e-4  # separation of the close pairs in each batch
    BATCHES = 2  # point batches per dimension, drawn from the seed at set-up

    def __init__(self, seed, workdir, small):
        rng = np.random.default_rng([seed, 0])
        self.cases = self.SMALL if small else self.CASES
        self.batches = {}
        for dim, (_, n_fwd, _) in self.cases.items():
            self.batches[dim] = []
            for _ in range(self.BATCHES):
                # half the batch are points, half their close partners
                base = rng.uniform(-0.95, 0.95, size=(n_fwd // 2, dim))
                step = rng.normal(size=base.shape)
                step *= self.OFFSET / np.linalg.norm(step, axis=1)[:, None]
                self.batches[dim].append(np.concatenate([base, base + step]))
        self.rng = np.random.default_rng([seed, 1])

    def round(self):
        jobs = []
        for dim, (res, _, n_inv) in self.cases.items():
            # near-isometric: the constant stays within about 1.1
            disp = float(self.rng.uniform(0.09, 0.11))
            pts = self.batches[dim][int(self.rng.integers(self.BATCHES))]
            jobs.append((f"{dim}d", partial(self._run, dim, res, disp, pts, n_inv),
                         partial(self._check, pts, n_inv)))
        return jobs

    @staticmethod
    def _run(dim, res, disp, pts, n_inv):
        f = P.pl_twist_example(dim, res, disp)
        lam = P.pl_bilip_constant(f)
        images = P.pl_eval(f, pts)
        back = M.evaluate_inverse_points(M.pl_homeomorphism(f), images[:n_inv])
        return f, lam, images, back

    @staticmethod
    def _check(pts, n_inv, out):
        f, lam, images, back = out
        problems = []
        if not P.pl_validate(f).ok:
            problems.append("pl_validate failed")
        residual = float(np.abs(back - pts[:n_inv]).max())
        if residual > 1e-9:
            problems.append(f"round-trip residual {residual}")
        half = pts.shape[0] // 2
        for a, b in ((slice(0, half), slice(half, None)),        # close pairs
                     (slice(0, half - 1), slice(1, half))):       # far pairs
            r = (np.linalg.norm(images[a] - images[b], axis=1)
                 / np.linalg.norm(pts[a] - pts[b], axis=1))
            worst = float(np.maximum(r, 1.0 / r).max())
            if worst > lam * (1.0 + REL):
                problems.append(f"pair ratio {worst} beats the PL constant {lam}")
        return pts.shape[0] + n_inv, problems


WORKLOADS = {w.name: w for w in (Estimate, VerifyAll, PL)}
