"""The comparison that ``tools/bench_record.py`` prints, on a synthetic
record, the usage it records per run and the clone it measures the
change in: no benchmark runs here."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
_SPEC = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)

END_TO_END = [
    {"name": "job_s.p50", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "items_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
]


def _side(job_runs, item_runs):
    runs = {"job_s.p50": job_runs, "items_per_s": item_runs}
    median = {name: sorted(values)[len(values) // 2] for name, values in runs.items()}
    return {"workloads": {"w": {"median": median, "runs": runs}}}


def _rows(change_jobs, change_items, parent_items=(10.0,) * 5):
    record = {"parent": _side([1.0, 2.0, 3.0, 4.0, 5.0], list(parent_items)),
              "change": _side(change_jobs, change_items)}
    return {row["metric"]: row for row in bench_record.compare(record, END_TO_END)}


class TestCompare:
    def test_ratio_pairs_won_and_parent_spread(self):
        rows = _rows([0.5, 2.5, 1.5, 3.0, 6.0], [11.0, 9.0, 12.0, 10.0, 13.0])
        job = rows["job_s.p50"]
        assert job["ratio"] == pytest.approx(2.5 / 3.0)
        assert (job["won"], job["pairs"]) == (3, 5)  # lower wins; a tie does not
        assert job["spread"] == pytest.approx(2.0)  # quartiles 2 and 4 of 1..5
        items = rows["items_per_s"]
        assert (items["won"], items["pairs"]) == (3, 5)  # higher wins
        assert items["spread"] == 0.0
        assert not job["worse"] and not items["worse"]

    @pytest.mark.parametrize("factor, worse", [(1.2, False), (1.25, False), (1.3, True)])
    def test_lower_is_better_flag(self, factor, worse):
        rows = _rows([factor * v for v in (1.0, 2.0, 3.0, 4.0, 5.0)], [10.0] * 5)
        assert rows["job_s.p50"]["worse"] is worse
        assert rows["items_per_s"]["worse"] is False

    @pytest.mark.parametrize("factor, worse", [(0.8, False), (0.75, False), (0.7, True)])
    def test_higher_is_better_flag(self, factor, worse):
        rows = _rows([1.0, 2.0, 3.0, 4.0, 5.0], [factor * 10.0] * 5)
        assert rows["items_per_s"]["worse"] is worse
        assert rows["job_s.p50"]["worse"] is False

    def test_gain_is_never_flagged(self):
        rows = _rows([0.1, 0.2, 0.3, 0.4, 0.5], [100.0] * 5)
        assert not rows["job_s.p50"]["worse"] and not rows["items_per_s"]["worse"]

    def test_unresolved_where_the_parent_spreads_past_the_bound(self):
        rows = _rows([1.0, 2.0, 3.0, 4.0, 5.0], [10.0] * 5)
        assert rows["job_s.p50"]["unresolved"]  # IQR 2 > 0.25 * median 3
        assert not rows["items_per_s"]["unresolved"]  # IQR 0
        assert not rows["job_s.p50"]["worse"]  # unresolved is not worse

    @pytest.mark.parametrize("best, unresolved", [(0.9, False), (1.0, True)])
    def test_lower_is_better_resolved_only_beyond_every_parent_run(self, best, unresolved):
        # the parent's fastest run is 1.0; a tie with it is not better
        rows = _rows([0.1, 0.2, 0.3, 0.4, best], [10.0] * 5)
        assert rows["job_s.p50"]["unresolved"] is unresolved

    @pytest.mark.parametrize("worst, unresolved", [(26.0, False), (25.0, True)])
    def test_higher_is_better_resolved_only_beyond_every_parent_run(self, worst, unresolved):
        # parent items 5..25: IQR 10 > 0.25 * median 15, best run 25
        rows = _rows([1.0] * 5, [worst, 30.0, 40.0, 50.0, 60.0],
                     parent_items=(5.0, 10.0, 15.0, 20.0, 25.0))
        assert rows["items_per_s"]["unresolved"] is unresolved

    def test_spread_at_the_bound_is_resolved(self):
        # IQR 0.75 = 0.25 * median 3: not past the bound
        record = {"parent": _side([2.0, 2.625, 3.0, 3.375, 4.0], [10.0] * 5),
                  "change": _side([2.0, 2.625, 3.0, 3.375, 4.0], [10.0] * 5)}
        rows = {row["metric"]: row for row in bench_record.compare(record, END_TO_END)}
        assert rows["job_s.p50"]["spread"] == pytest.approx(0.75)
        assert not rows["job_s.p50"]["unresolved"]

    def test_bench_11_record(self):
        # pl setup_s and job_s.tail spread past their bound at the parent;
        # every change run of setup_s beat every parent run, so only
        # job_s.tail is unresolved
        root = _PATH.parent.parent
        record = json.loads((root / "BENCH_11.json").read_text())
        end_to_end = json.loads((root / "BENCHMARK.json").read_text())["end_to_end"]
        rows = bench_record.compare(record, end_to_end)
        past = {(r["workload"], r["metric"]) for r in rows
                if r["spread"] > r["bound"] * record["parent"]["workloads"][r["workload"]]
                ["median"][r["metric"]]}
        assert past == {("pl", "setup_s"), ("pl", "job_s.tail")}
        assert {(r["workload"], r["metric"]) for r in rows if r["unresolved"]} == {
            ("pl", "job_s.tail")}


class TestUsage:
    def test_a_run_counts_its_own_faults_and_system_time(self):
        # the child writes 64 MiB, far more than an idle interpreter touches
        idle = bench_record.run_counted([sys.executable, "-c", "pass"], _PATH.parent)[1]
        busy = bench_record.run_counted(
            [sys.executable, "-c", "b = bytearray(64 << 20); b[::4096] = b'x' * (16 << 10)"],
            _PATH.parent)[1]
        assert set(idle) == set(busy) == {"minflt", "sys_s"}
        assert isinstance(busy["minflt"], int) and isinstance(busy["sys_s"], float)
        assert 0 < idle["minflt"] and 0.0 <= idle["sys_s"]
        assert busy["minflt"] > idle["minflt"] and busy["sys_s"] >= 0.0

    def test_summary_keeps_runs_and_medians(self):
        results = [{"metrics": {"job_s.p50": {"value": v}}, "attempted": 6, "failed": f}
                   for v, f in ((0.3, 0), (0.1, 1), (0.2, 0))]
        usages = [{"minflt": 900, "sys_s": 0.5}, {"minflt": 100, "sys_s": 0.1},
                  {"minflt": 300, "sys_s": 0.2}]
        summary = bench_record.summarise(results, usages)
        assert summary["median"] == {"job_s.p50": 0.2}
        assert (summary["attempted"], summary["failed"]) == (18, 1)
        assert summary["usage"] == {"median": {"minflt": 300, "sys_s": 0.2},
                                    "runs": {"minflt": [900, 100, 300],
                                             "sys_s": [0.5, 0.1, 0.2]}}
        assert summary["job_s.p50_by_kind"] == {"median": {}, "runs": {}}

    def test_summary_keeps_each_job_kind(self):
        results = [{"metrics": {"job_s.p50": {"value": 0.2}}, "attempted": 6, "failed": 0}] * 3
        usages = [{"minflt": 100, "sys_s": 0.1}] * 3
        by_kind = [{"2d": 0.02, "3d": 0.05}, {"2d": 0.01, "3d": 0.04}, {"2d": 0.03, "3d": 0.06}]
        summary = bench_record.summarise(results, usages, by_kind)
        assert summary["job_s.p50_by_kind"] == {
            "median": {"2d": 0.02, "3d": 0.05},
            "runs": {"2d": [0.02, 0.01, 0.03], "3d": [0.05, 0.04, 0.06]}}


def _git(cwd, *args):
    return subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                          cwd=cwd, capture_output=True, text=True, check=True).stdout.strip()


class TestCloneHead:
    def test_clone_holds_the_head_commit_alone(self, tmp_path):
        repo = tmp_path / "repo"
        (repo / "src").mkdir(parents=True)
        _git(tmp_path, "init", "--quiet", str(repo))
        (repo / "src" / "a.py").write_text("A = 1\n")
        _git(repo, "add", "-A")
        _git(repo, "commit", "--quiet", "-m", "first")
        (repo / "src" / "a.py").write_text("A = 2\n")
        _git(repo, "commit", "--quiet", "-am", "second")
        _git(repo, "checkout", "--quiet", "HEAD~1")  # a detached HEAD is cloned as itself
        (repo / "src" / "a.py").write_text("A = 3\n")  # uncommitted
        (repo / "src" / "left.pyc").write_text("x")  # untracked
        clone = bench_record.clone_head(repo, tmp_path / "clone")
        assert clone == tmp_path / "clone"
        assert _git(clone, "rev-parse", "HEAD") == _git(repo, "rev-parse", "HEAD")
        assert (clone / "src" / "a.py").read_text() == "A = 1\n"
        assert not (clone / "src" / "left.pyc").exists()
        assert bench_record.uncommitted(clone) == ""
