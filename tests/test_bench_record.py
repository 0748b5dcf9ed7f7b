"""The comparison that ``tools/bench_record.py`` prints, on a synthetic
record: no benchmark runs here."""

import importlib.util
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


def _rows(change_jobs, change_items):
    record = {"parent": _side([1.0, 2.0, 3.0, 4.0, 5.0], [10.0, 10.0, 10.0, 10.0, 10.0]),
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
