"""Smoke test of the benchmark, at minimal size and without timing
assertions. It lives outside ``tests/``, so tier-1 does not collect it.

    python3 -m pytest -q bench/test_smoke.py

It checks that every metric BENCHMARK.json names is printed, that each
workload exercises the layers it is meant to exercise and leaves
untouched the layers it is meant to skip, and that the runner refuses
to run without the bilip sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# per-layer counts that must be nonzero on a workload ...
EXERCISED = {
    "estimate": ["estimators.pair_stream.pairs", "estimators.reduce.self_s",
                 "maps.eval.RadialExtensionMap.points", "maps.eval.DiskReplicationMap.points",
                 "maps.eval.SpiralMap.points", "maps.sphere_apply.points",
                 "maps.disk_apply.points", "profiles.cubic.points",
                 "mapformat.self_s", "cli.self_s"],
    "verify-all": ["estimators.pair_stream.pairs", "estimators.sphere_bound.pairs",
                   "estimators.c_density.grid_points", "estimators.graph.edges",
                   "estimators.dijkstra.sources", "core.singular_values.matrices",
                   "maps.displacement.ProductMap.points", "verify.matrix-norms.self_s",
                   "cli.self_s"],
    "pl": ["core.singular_values.matrices", "pl.bilip_constant.simplices",
           "pl.eval.points", "pl.eval_inverse.points", "pl.buckets.simplices",
           "maps.eval_inverse.PLHomeomorphismMap.points"],
}
# ... and counts that must stay zero, because the workload skips that layer
SKIPPED = {
    "estimate": ["core.singular_values.matrices", "pl.eval.points",
                 "estimators.c_density.grid_points", "estimators.dijkstra.sources",
                 "estimators.sphere_bound.pairs"],
    "verify-all": ["maps.eval_inverse.PLHomeomorphismMap.points", "pl.eval_inverse.points"],
    "pl": ["estimators.pair_stream.pairs", "estimators.reduce.self_s",
           "maps.sphere_apply.points", "mapformat.self_s", "cli.self_s"],
}


def _run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--small"],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def _result(workload, trace):
    done = _run(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result["metrics"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    metrics = _result(workload, 0)
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in metrics.items()} == declared
    assert all(v["value"] > 0 for v in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layers(workload):
    metrics = _result(workload, 1)
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in metrics.items()} == declared
    value = {k: v["value"] for k, v in metrics.items()}
    assert [k for k in EXERCISED[workload] if value[k] <= 0] == []
    assert [k for k in SKIPPED[workload] if value[k] != 0] == []
    assert [k for k in value if k.endswith(".errors") and value[k] != 0] == []
    assert 0 < value["trace.coverage_frac"] <= 1.0


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run("estimate", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
