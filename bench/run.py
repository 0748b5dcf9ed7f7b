"""Benchmark of bilip: one workload, one seed, one line of metrics.

Usage, from the root of a checkout::

    python3 bench/run.py --workload {estimate,verify-all,pl} --seed N \
        --seconds S --trace {0,1} [--small] [--setup-only]

The runner imports bilip from the checkout's ``src/`` (never from an
installed copy), makes the workload's inputs from ``--seed``, runs
whole rounds of jobs in a closed loop for about ``--seconds`` seconds,
checks every job's output and prints, as its last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``. The line
before it holds the run's provenance and details.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json:

* ``setup_s``: median over five set-ups of importing numpy, scipy
  and bilip and making the inputs: the runner's own, and one each in
  fresh interpreters, two before it and two after the measured loop,
  so that the samples span the run's changes in host speed.
* ``job_s.p50``: median seconds per job.
* ``job_s.tail``: the slowest job but ten, i.e. the highest percentile
  that still has ten jobs beyond it; the percentile is in the details.
* ``peak_rss_mb``: the runner's own peak resident set size.
* ``items_per_s``: work items per second of job time: sampled pairs
  on ``estimate`` and ``verify-all`` (see workloads.py for which),
  forward plus inverse PL points on ``pl``.

The error rate is ``failed / attempted`` of the result line.

``--trace 1`` reports the per-layer metrics of BENCHMARK.json. Rounds
alternate between the unmodified program and the program wrapped by
the outside-in tracer (see tracer.py); per-layer counts and self times
are means per traced job, so they do not grow with the number of jobs
that fit in the run, and ``trace.overhead_frac`` compares the traced
and untraced medians. The spans are written to
``bench/out/trace-<workload>-<seed>.ndjson``.

``--small`` shrinks every job, for the smoke test. ``--setup-only``
sets up once, prints the seconds it took and exits; the runner starts
itself that way for the extra set-ups behind ``setup_s``.

Without ``src/bilip`` next to it the runner exits with code 2 and
prints no result.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
BLAS_THREADS = 1  # one client, one thread: steadier than sharing 2 cores
MIN_JOBS = 11  # the tail needs ten jobs beyond it
SETUP_PROBES = 2  # fresh-interpreter set-ups before and again after the loop
TAIL_BEYOND = 10


def _limit_threads():
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def _setup(workload, seed, workdir, small):
    """Import bilip and make the workload's inputs; returns the
    workload object and the seconds it took."""
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    import scipy  # noqa: F401

    import bilip  # noqa: F401
    import workloads

    w = workloads.WORKLOADS[workload](seed, workdir, small)
    return w, time.perf_counter() - t0


def _probe_setup(args):
    """Set-up time of a fresh interpreter, measured by the interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.small:
        cmd.append("--small")
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------- provenance

def _git_commit():
    # --git-dir: a checkout that is not a repository must not report
    # the commit of a repository around it
    try:
        done = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown (not a git checkout)"
    return done.stdout.strip()


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _provenance(args):
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": _git_commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "small": args.small,
    }


# ------------------------------------------------------------------- running

def _measure(w, seconds, bilip, tracer):
    """Closed loop over whole rounds; returns one record per job.

    Stops at the round boundary nearest to ``seconds`` once at least
    MIN_JOBS jobs ran or, when tracing, one untraced and one traced
    round. With a tracer, odd rounds run traced.
    """
    jobs = []
    start = time.perf_counter()
    k = 0
    while True:
        traced = tracer is not None and k % 2 == 1
        if traced:
            tracer.install(bilip)
        try:
            for kind, run, check in w.round():
                job_id = len(jobs)
                if traced:
                    tracer.begin_job(job_id)
                t0 = time.perf_counter()
                try:
                    out, error = run(), None
                except Exception as exc:  # a failed job is counted, not fatal
                    out, error = None, f"{type(exc).__name__}: {exc}"
                wall = time.perf_counter() - t0
                if traced:
                    tracer.end_job()
                jobs.append({"id": job_id, "kind": kind, "traced": traced,
                             "wall": wall, "error": error, "run": out, "check": check})
        finally:
            if traced:
                tracer.uninstall()
        # checks run untraced and untimed
        for job in jobs:
            if "items" not in job:
                job["items"], job["problems"] = 0, []
                if job["error"] is None:
                    try:
                        job["items"], job["problems"] = job["check"](job["run"])
                    except Exception as exc:  # malformed output fails the job
                        job["problems"] = [f"check raised {type(exc).__name__}: {exc}"]
                del job["check"], job["run"]
        k += 1
        elapsed = time.perf_counter() - start
        enough = k >= 2 if tracer is not None else len(jobs) >= MIN_JOBS
        if enough and elapsed + 0.5 * elapsed / k >= seconds:
            return jobs


def _tail(times):
    """Value and percentile of the slowest job but TAIL_BEYOND."""
    ordered = sorted(times)
    rank = len(ordered) - TAIL_BEYOND  # 1-based rank of the reported job
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def _declared(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec[kind]]


def _end_to_end(jobs, setup_s):
    ok = [j for j in jobs if j["error"] is None and not j["problems"]]
    times = [j["wall"] for j in jobs]
    tail, pct = _tail(times)
    values = {
        "setup_s": statistics.median(setup_s),
        "job_s.p50": statistics.median(times),
        "job_s.tail": tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "items_per_s": sum(j["items"] for j in ok) / sum(j["wall"] for j in ok) if ok else 0.0,
    }
    details = {"jobs": len(times), "tail_percentile": pct,
               "setup_samples_s": setup_s,
               "job_s.p50_by_kind": {k: statistics.median(j["wall"] for j in jobs if j["kind"] == k)
                                     for k in sorted({j["kind"] for j in jobs})}}
    return values, details


def _per_layer(jobs, tracer):
    totals, layer_s = tracer.reduce()
    traced = [j for j in jobs if j["traced"]]
    plain = [j["wall"] for j in jobs if not j["traced"]]
    job_wall = sum(j["wall"] for j in traced)
    shares = {k[:-len(".self_s")]: v / job_wall for k, v in totals.items()
              if k.endswith(".self_s")}
    sampled = totals.get("estimators.pair_stream.pairs", 0)
    values = {"estimators.kept_ratio": (totals.get("estimators.reduce.kept", 0) / sampled
                                        if sampled else 0.0)}
    # means per traced job; error counts stay totals over the run
    for key, value in totals.items():
        values[key] = value if key.endswith(".errors") else value / len(traced)
    values["trace.overhead_frac"] = (statistics.median(j["wall"] for j in traced)
                                     / statistics.median(plain) - 1.0)
    values["trace.coverage_frac"] = sum(layer_s.values()) / job_wall
    values["trace.jobs"] = len(traced)
    # each job's layer self times must fit in the wall time the runner
    # measured; spans nest on one stack inside that interval, so this
    # holds unless the tracer misplaces a span
    over = [j["id"] for j in traced if layer_s.get(j["id"], 0.0) > j["wall"]]
    return values, {"layer_share_of_job_time": dict(sorted(shares.items())),
                    "jobs_over_wall": over}


def _write_trace(args, tracer, values):
    path = OUT / f"trace-{args.workload}-{args.seed}.ndjson"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"metrics": values}, sort_keys=True) + "\n")
        for span in tracer.span_records():
            fh.write(json.dumps(span) + "\n")
    return str(path.relative_to(ROOT))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("estimate", "verify-all", "pl"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="shrink every job (smoke test)")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up once, print the seconds and exit")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be a nonnegative integer")

    if not (ROOT / "src" / "bilip" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no bilip sources under {ROOT / 'src'}\n")
        return 2
    _limit_threads()
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(1, str(Path(__file__).resolve().parent))
    OUT.mkdir(parents=True, exist_ok=True)

    with tempfile.TemporaryDirectory(dir=OUT, prefix="inputs-") as tmp:
        if args.setup_only:
            _, seconds = _setup(args.workload, args.seed, Path(tmp), args.small)
            print(repr(seconds))
            return 0
        probes = 0 if args.trace else SETUP_PROBES  # setup_s is not a per-layer metric
        setup_s = [_probe_setup(args) for _ in range(probes)]
        w, own = _setup(args.workload, args.seed, Path(tmp), args.small)
        setup_s.append(own)
        import bilip

        if not Path(bilip.__file__).resolve().is_relative_to(ROOT / "src"):
            sys.stderr.write(f"bench: imported bilip from {bilip.__file__}, not src/\n")
            return 2
        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
        jobs = _measure(w, args.seconds, bilip, tracer)
        setup_s += [_probe_setup(args) for _ in range(probes)]

    failed = [j for j in jobs if j["error"] is not None or j["problems"]]
    details = {"provenance": _provenance(args),
               "error_rate": len(failed) / len(jobs),
               "failures": [{"id": j["id"], "kind": j["kind"],
                             "error": j["error"], "problems": j["problems"]}
                            for j in failed][:10]}
    correct = not failed
    if args.trace:
        values, extra = _per_layer(jobs, tracer)
        details["trace_file"] = _write_trace(args, tracer, values)
        correct = correct and not extra["jobs_over_wall"]
        names = _declared("per_layer")
    else:
        values, extra = _end_to_end(jobs, setup_s)
        names = _declared("end_to_end")
    details.update(extra)
    metrics = {name: {"value": values.get(name, 0), "unit": unit} for name, unit in names}
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": len(jobs),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
