"""Record the benchmark of a commit against its parent as ``BENCH_<pr>.json``.

Usage, from the root of a checkout::

    python3 tools/bench_record.py --pr N --parent DIR --seeds 11 12 13

For each workload that ``BENCHMARK.json`` declares and each seed it
runs ``python3 bench/run.py --workload W --seed S --seconds T --trace
0``, with T the benchmark's ``run_seconds``, in a fresh ``git clone
--local`` of this checkout's HEAD (removed afterwards) and in the
checkout at DIR (a clone of the parent commit). Both sides thus run
from a clean clone: a working checkout, with its build and run
leftovers, has read more minor page faults than a fresh clone of the
same commit (1.5 times as many on ``pl`` in one record). The two checkouts run one after the
other on the same seed, and the one that goes first alternates from
seed to seed, so a drift in host speed falls on both sides alike. Runs
never overlap.

The record, written to ``BENCH_<N>.json`` at the root of this checkout,
holds for each side the commit and, per workload, the median of every
end-to-end metric over the seeds, the per-run values, the attempted
and failed job counts, and each run's minor page faults and system CPU
seconds (``usage``: the ``getrusage(RUSAGE_CHILDREN)`` delta over the
run, its set-up probes included) and the median job time of each job
kind (``job_s.p50_by_kind``), each with their medians. The machine
facts (cores, CPU, Python, numpy, scipy, BLAS and its threads) come
from the runs' provenance lines; the script refuses to write a record
whose runs disagree on them, and to start on a checkout with
uncommitted changes under ``src/`` or ``bench/``, whose figures would
not belong to its commit.

After writing the record it prints one line per workload and
end-to-end metric: the change/parent ratio of the medians, the seeds
on which the change won, the spread between the quartiles of the
parent's runs, a flag where the change is worse than the parent by
more than the metric's ``bound`` in ``BENCHMARK.json``, and a flag
where the metric is unresolved: the parent's own runs spread wider
than the bound allows, so the record cannot tell a change of that size
from noise, unless every run of the change is better than every run of
the parent. Then one line per workload gives the median page faults
and system CPU seconds of a run on each side, and one line per job
kind its median job time on each side.

A run takes about ``run_seconds`` plus a few seconds of set-up probes.
This script is not part of the test suite.
"""

import argparse
import json
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MACHINE = ("nproc", "cpu", "python", "numpy", "scipy", "blas", "blas_threads")


def uncommitted(checkout):
    """Changed or new files under src/ and bench/ of a git checkout."""
    done = subprocess.run(["git", "status", "--porcelain", "--", "src", "bench"],
                          cwd=checkout, capture_output=True, text=True, check=True)
    return done.stdout.strip()


def clone_head(checkout, dest):
    """A fresh ``git clone --local`` of the commit at ``checkout``'s
    HEAD, at ``dest``, without the checkout's uncommitted or untracked
    files; returns ``dest``."""
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout,
                          capture_output=True, text=True, check=True).stdout.strip()
    subprocess.run(["git", "clone", "--quiet", "--local", "--no-checkout", str(checkout),
                    str(dest)], capture_output=True, check=True)
    subprocess.run(["git", "checkout", "--quiet", "--detach", head], cwd=dest,
                   capture_output=True, check=True)
    return dest


def run_counted(cmd, checkout):
    """Run ``cmd`` to completion in ``checkout``; returns the completed
    process and its usage: minor page faults and system CPU seconds,
    the ``getrusage(RUSAGE_CHILDREN)`` delta over the call."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return done, {"minflt": after.ru_minflt - before.ru_minflt,
                  "sys_s": after.ru_stime - before.ru_stime}


def run_bench(checkout, workload, seed, seconds):
    """One untraced run; returns (details line, result line, usage)."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done, usage = run_counted(cmd, checkout)
    details, result = (json.loads(line) for line in done.stdout.splitlines()[-2:])
    return details, result, usage


def summarise(results, usages, by_kind=()):
    """Medians and per-run values of each metric, of each usage field
    and of each job kind's median job time (``by_kind``: one
    ``job_s.p50_by_kind`` details entry per run), plus job counts."""
    names = list(results[0]["metrics"])
    runs = {name: [r["metrics"][name]["value"] for r in results] for name in names}
    usage = {key: [u[key] for u in usages] for key in usages[0]}
    kinds = {kind: [run[kind] for run in by_kind] for kind in (by_kind or [{}])[0]}
    return {
        "job_s.p50_by_kind": {"median": {k: statistics.median(v) for k, v in kinds.items()},
                              "runs": kinds},
        "median": {name: statistics.median(values) for name, values in runs.items()},
        "runs": runs,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "usage": {"median": {key: statistics.median(v) for key, v in usage.items()},
                  "runs": usage},
    }


def compare(record, end_to_end):
    """One row per workload and end-to-end metric of a record: the
    change/parent median ratio, the pairs of runs (one per seed) the
    change won, the interquartile range of the parent's runs,
    ``worse``: the change's median is worse than the parent's by more
    than the metric's relative ``bound``, and ``unresolved``: that
    range exceeds ``bound`` times the parent's median and some run of
    the change is not better than every run of the parent."""
    rows = []
    for workload, parent in record["parent"]["workloads"].items():
        change = record["change"]["workloads"][workload]
        for metric in end_to_end:
            name, lower = metric["name"], metric["better"] == "lower"
            ratio = change["median"][name] / parent["median"][name]
            pairs = list(zip(change["runs"][name], parent["runs"][name]))
            won = sum(c < p if lower else c > p for c, p in pairs)
            runs = parent["runs"][name]
            q1, _, q3 = (statistics.quantiles(runs, n=4, method="inclusive")
                         if len(runs) > 1 else (runs[0],) * 3)
            beats_all = (max(change["runs"][name]) < min(runs) if lower
                         else min(change["runs"][name]) > max(runs))
            rows.append({"workload": workload, "metric": name, "unit": metric["unit"],
                         "ratio": ratio, "won": won, "pairs": len(pairs),
                         "spread": q3 - q1, "bound": metric["bound"],
                         "worse": (ratio > 1.0 + metric["bound"] if lower
                                   else ratio < 1.0 - metric["bound"]),
                         "unresolved": (q3 - q1 > metric["bound"] * parent["median"][name]
                                        and not beats_all)})
    return rows


def measure(sides, workloads, seeds, seconds):
    """Run every workload on every seed in both checkouts, the side
    that goes first alternating from seed to seed; returns the result
    lines, usages and job-kind medians per side and workload, the
    commit of each side and the set of machine descriptions."""
    results = {side: {w: [] for w in workloads} for side in sides}
    usages = {side: {w: [] for w in workloads} for side in sides}
    by_kind = {side: {w: [] for w in workloads} for side in sides}
    commits = {}
    machines = set()
    for workload in workloads:
        for k, seed in enumerate(seeds):
            order = list(sides) if k % 2 == 0 else list(reversed(sides))
            for side in order:
                details, result, usage = run_bench(sides[side], workload, seed, seconds)
                prov = details["provenance"]
                by_kind[side][workload].append(details["job_s.p50_by_kind"])
                commits[side] = prov["commit"]
                machines.add(json.dumps({key: prov[key] for key in MACHINE}, sort_keys=True))
                results[side][workload].append(result)
                usages[side][workload].append(usage)
                print(f"{workload} seed {seed} {side}: job_s.p50 "
                      f"{result['metrics']['job_s.p50']['value']:.4f} s, "
                      f"failed {result['failed']}/{result['attempted']}, "
                      f"minflt {usage['minflt']}, sys {usage['sys_s']:.2f} s", file=sys.stderr)
    return results, usages, by_kind, commits, machines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, required=True, help="number in BENCH_<pr>.json")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--parent", type=Path, required=True,
                        help="checkout of the parent commit")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]

    sides = {"change": ROOT, "parent": args.parent.resolve()}
    for side, checkout in sides.items():
        if uncommitted(checkout):  # the record names the commit it measured
            sys.exit(f"bench_record: {side} checkout {checkout} has uncommitted changes "
                     f"under src/ or bench/")
    with tempfile.TemporaryDirectory(prefix="bench_record-") as tmp:
        sides["change"] = clone_head(ROOT, Path(tmp) / "change")
        results, usages, by_kind, commits, machines = measure(sides, workloads,
                                                              args.seeds, seconds)
    if len(machines) != 1:
        sys.exit(f"bench_record: runs disagree on the machine: {sorted(machines)}")

    record = {
        "pr": args.pr,
        "machine": json.loads(machines.pop()),
        "plan": {"seeds": args.seeds, "seconds": seconds, "trace": 0,
                 "order": "sides alternate which runs first from seed to seed"},
    }
    for side in sides:
        record[side] = {"commit": commits[side],
                        "workloads": {w: summarise(results[side][w], usages[side][w],
                                                   by_kind[side][w])
                                      for w in workloads}}
    path = ROOT / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(path)
    for row in compare(record, bench["end_to_end"]):
        flag = f"  WORSE than parent beyond bound {row['bound']}" if row["worse"] else ""
        if row["unresolved"]:
            flag += f"  UNRESOLVED: parent IQR past bound {row['bound']} of its median"
        print(f"{row['workload']:<10} {row['metric']:<12} change/parent {row['ratio']:.3f}  "
              f"won {row['won']}/{row['pairs']}  parent IQR {row['spread']:.4g} "
              f"{row['unit']}{flag}")
    for workload in workloads:
        parent, change = (record[side]["workloads"][workload]["usage"]["median"]
                          for side in ("parent", "change"))
        print(f"{workload:<10} per run: minor faults parent {parent['minflt']:.0f} "
              f"change {change['minflt']:.0f}, system CPU parent {parent['sys_s']:.2f} s "
              f"change {change['sys_s']:.2f} s")
        parent, change = (record[side]["workloads"][workload]["job_s.p50_by_kind"]["median"]
                          for side in ("parent", "change"))
        for kind in sorted(set(parent) & set(change)):
            print(f"{workload:<10} job kind {kind}: job_s.p50 parent {parent[kind]:.4f} s "
                  f"change {change[kind]:.4f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
