"""Reports pinned across commits.

``tests/data`` holds the JSON lines of ``verify.default_suite(3, 20_000)``
and of four ``bilip estimate --claim`` records, written by an earlier
commit with their timing fields removed. A change that keeps the sample
stream must reproduce them byte for byte; a change that alters a stream
or a constant on purpose writes them again and says why.

At the default 1e5 pairs, seeds 7 and 11, only the sha256 of each such
line is pinned, in ``default_suite_pairs100000_sha256.jsonl``.
"""

import hashlib
import json
from pathlib import Path

from bilip import maps as M
from bilip import verify as V
from bilip.cli import run_cli
from bilip.mapformat import save_map

DATA = Path(__file__).parent / "data"
TIMING = ("wall_time_ms", "elapsed_ms")

# (name, map, region, claim) of the pinned estimate records, each at
# seed 5 and 2e4 pairs; the two radial claims survive, the other two fall
ESTIMATES = (
    ("radial", lambda: M.radial_extension(M.make_latitude_sphere_map(0.45, dim=3)),
     "ball:0,0,0:100", 2.0),
    ("twist", lambda: M.disk_replication(M.make_twist_disk_map(dim=2, amplitude=0.7)),
     "ball:0,0:300", 1.3),
    ("spiral", lambda: M.spiral_map(M.LogSpiralProfile(1.0, (0, 1), 2)),
     "annulus:1e-3:1e4", 1.5),
    ("radial_inverse",
     lambda: M.inverse(M.radial_extension(M.make_latitude_sphere_map(0.45, dim=3))),
     "ball:0,0,0:100", 2.0),
)


def _line(record):
    return json.dumps({k: v for k, v in record.items() if k not in TIMING},
                      sort_keys=True, allow_nan=False)


def suite_lines():
    return [_line(rep.to_dict()) for rep in V.default_suite(3, 20_000)]


def estimate_lines(workdir, capsys):
    lines = []
    for name, build, region, claim in ESTIMATES:
        path = workdir / f"{name}.map"
        save_map(build(), path)
        run_cli(["estimate", "--map", str(path), "--region", region, "--pairs", "20000",
                 "--seed", "5", "--claim", repr(claim)])
        lines.append(_line(json.loads(capsys.readouterr().out)))
    return lines


def test_reports_match_pinned_lines(tmp_path, capsys):
    for lines, name in ((suite_lines(), "default_suite_seed3_pairs20000.jsonl"),
                        (estimate_lines(tmp_path, capsys), "estimate_claims_seed5.jsonl")):
        assert lines == (DATA / name).read_text().splitlines(), name


def test_default_suite_digests_at_default_pairs():
    lines = [json.dumps({"scenario": rep.scenario, "seed": seed,
                         "sha256": hashlib.sha256(_line(rep.to_dict()).encode()).hexdigest()},
                        sort_keys=True)
             for seed in (7, 11) for rep in V.default_suite(seed, 100_000)]
    assert lines == (DATA / "default_suite_pairs100000_sha256.jsonl").read_text().splitlines()
