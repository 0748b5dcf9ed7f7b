"""End-to-end tests of the command-line interface."""

import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import bilip
from bilip import estimators as est
from bilip import maps as M
from bilip import pl
from bilip.cli import parse_config_file, parse_region, run_cli
from bilip.errors import ConfigError
from bilip.mapformat import save_map
from bilip.profiles import bump_profile


def assert_usage_error(capsys, *args):
    """Exit 2 with one ``error:`` line on stderr, nothing on stdout."""
    assert run_cli(list(args)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    return captured.err


def run(capsys, *args):
    code = run_cli(list(args))
    out = capsys.readouterr().out
    records = [json.loads(line) for line in out.strip().splitlines() if line]
    return code, records


class TestUsage:
    def test_no_args_is_usage_error(self, capsys):
        assert run_cli([]) == 2

    def test_unknown_subcommand(self, capsys):
        assert run_cli(["frobnicate"]) == 2

    def test_unknown_scenario(self, capsys):
        assert run_cli(["verify", "nonsense"]) == 2

    def test_missing_required_flag(self, capsys):
        assert run_cli(["estimate", "--region", "ball:0,0:1"]) == 2

    @pytest.mark.parametrize("flags, config", [
        (["--pairs", "0"], None),
        (["--seed", "-1"], None),
        ([], "pairs = abc\n"),
        ([], "bta = 0.3\n"),  # a key no scenario knows
    ])
    def test_bad_scenario_parameter_is_usage_error(self, capsys, tmp_path, flags,
                                                   config):
        args = ["verify", "radial-bound", *flags]
        if config is not None:
            path = tmp_path / "bad.cfg"
            path.write_text(config)
            args += ["--config", str(path)]
        assert_usage_error(capsys, *args)

    @pytest.mark.parametrize("scenario", ["homomorphism", "product-qi",
                                          "matrix-norms", "metric-equivalence",
                                          "all"])
    def test_svg_without_plot_is_usage_error(self, capsys, tmp_path, scenario):
        svg = tmp_path / "plot.svg"
        assert_usage_error(capsys, "verify", scenario, "--svg", str(svg))
        assert not svg.exists()


@pytest.mark.parametrize("argv", [
    "estimate --map {affine} --region ball:0,0:10 --pairs 1000 --claim inf",
    "geodesic --cloud {cloud} --eps -1 --pair 0 100",
    "geodesic --cloud {cloud} --eps 0",
    "geodesic --cloud {cloud} --eps nan",
    "geodesic --cloud {cloud} --eps inf",
    "geodesic --cloud {cloud} --pairs 0",
    "geodesic --cloud {cloud} --pairs -5",
    "verify metric-equivalence --eps 0 --points 200 --pairs 10",
    "verify radial-bound --n 1 --pairs 100",
    "verify homomorphism --kind radial --n 1 --pairs 100",
    "drift --map {identity} --witnesses ray --x0 1,0 -K 1024",
    "drift --map {replication} --witnesses replication -K 600",
    "drift --map {identity} --witnesses ray --x0 1e300,0",
    "drift --map {replication} --witnesses replication --x0 0,0",  # g fixes x0
    "drift --map {cutoff} --witnesses spiral",  # the identity far out
    "drift --map {identity} --witnesses ray --x0 1,0 --threshold nan --expect exceeds",
    "drift --map {identity} --witnesses ray --x0 1,0 --threshold -1",
    "drift --map {identity} --witnesses ray --x0 1,0 --threshold 0",
    "verify replication-drift --threshold inf",
    "verify replication-drift --threshold -1",
    "verify matrix-norms --max-dim 17",
    "verify metric-equivalence --points 1 --pairs 10",
])
def test_refused_value_is_usage_error(capsys, tmp_path, argv):
    """A claim that is not a finite constant, a graph eps or a drift
    threshold that is not finite and positive, a pair count below 1, a
    radial bound on S^0 (where no pair can be sampled), a radial
    homomorphism on S^0 (where every latitude map is the identity),
    drift witnesses that overflow or cannot be built, matrices larger
    than 16 x 16 and a cloud of one point are usage errors, not a result
    or a failed check."""
    paths = {name: tmp_path / name for name in
             ("affine", "cloud", "identity", "replication", "cutoff")}
    save_map(M.affine([[1000.0, 0.0], [0.0, 1.0]]), paths["affine"])
    est.save_cloud_csv(est.circle_cloud(200), paths["cloud"])
    save_map(M.identity(2), paths["identity"])
    save_map(M.disk_replication(M.make_twist_disk_map(dim=2)), paths["replication"])
    save_map(M.spiral_map(M.CutoffRotationProfile(bump_profile(1.0, 1.0, 3.0), (0, 1), 2)),
             paths["cutoff"])
    assert_usage_error(capsys, *argv.format(**paths).split())


_LATITUDE = "latitude(beta=0.5,axis=[0,1])"
_INPUT_FILES = {
    "id.map": b"identity(dim=2)\n",
    # a part of the wrong family
    "spiral.map": f"spiral(profile={_LATITUDE})\n".encode(),
    "product.map": b"product(left=latitude(beta=0.5,axis=[1]),right=identity(dim=1))\n",
    "pl.map": b"pl(map=identity(dim=2))\n",
    "pl_disk.map": b"disk_replication(map=pl_disk(map=identity(dim=2)))\n",
    "replication.map": f"disk_replication(map={_LATITUDE})\n".encode(),
    "compose.map": f"compose(maps=[{_LATITUDE}])\n".encode(),
    "radial.map": b"radial_extension(map=identity(dim=2))\n",
    "translated.map": b"translated_replication(maps=[identity(dim=2)])\n",
    "conjugated.map": (b"radial_extension(map=conjugated(rotation=[[0,1],[1,0]],"
                       b"map=identity(dim=2)))\n"),
    # files that cannot be read as text, and malformed point clouds
    "latin1.cfg": b"pairs = 100\n# caf\xe9\n",
    "latin1.csv": b"1,0\n0,1\n\xe9\n",
    "word.csv": b"1,0\n0,x\n",
    "ragged.csv": b"1,0\n0\n",
    "empty.csv": b"",
    "nan.csv": b"1,0\nnan,1\n",
    "single.csv": b"1,0\n",
}


@pytest.mark.parametrize("argv", [
    *(f"estimate --map {name} --region ball:0,0:1 --pairs 100"
      for name in _INPUT_FILES if name.endswith(".map") and name != "id.map"),
    "verify matrix-norms --pairs 100 --config dir",
    "estimate --map dir --region ball:0,0:1 --pairs 100",
    "drift --map dir",
    "pl-norm --plmap dir",
    "geodesic --cloud dir",
    "estimate --map id.map --region ball:0,0:1 --pairs 100 --out dir",
    "estimate --map id.map --region ball:0,0:1 --pairs 100 --svg dir",
    "verify all --out dir",
    "verify replication-drift --svg dir",
    "drift --map id.map --x0 1,0 --out dir",
    "verify matrix-norms --pairs 100 --config latin1.cfg",
    *(f"geodesic --cloud {name} --pairs 10" for name in _INPUT_FILES if name.endswith(".csv")),
])
def test_unusable_input_is_usage_error(capsys, tmp_path, monkeypatch, argv):
    """A map whose part is of the wrong family, an input that is a
    directory or not UTF-8 text, an output path that is a directory and
    a point cloud that is not at least 2 rows of equally many finite
    numbers are all refused before the run: exit 2 with one ``error:``
    line and nothing on stdout. No pair is drawn."""
    for name, data in _INPUT_FILES.items():
        (tmp_path / name).write_bytes(data)
    (tmp_path / "dir").mkdir()
    monkeypatch.chdir(tmp_path)

    def no_pairs(*args, **kwargs):
        raise AssertionError("a pair was drawn")

    monkeypatch.setattr(est, "_pair_chunks", no_pairs)
    assert_usage_error(capsys, *argv.split())


@pytest.mark.parametrize("argv, flag", [
    ("drift --map id.map --witnesses ray --x0 a,b", "--x0"),
    ("geodesic --cloud pl.map --pairs 10", "--cloud"),
])
def test_refusal_names_its_flag(capsys, tmp_path, monkeypatch, argv, flag):
    """An --x0 that is not numbers and a --cloud that is not a CSV of
    numbers are refused with a message that names the flag."""
    for name, data in _INPUT_FILES.items():
        (tmp_path / name).write_bytes(data)
    monkeypatch.chdir(tmp_path)
    assert flag in assert_usage_error(capsys, *argv.split())


class TestVerifyCommand:
    def test_spiral_scenario_passes(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code, records = run(
            capsys, "verify", "spiral-bound", "--c", "1", "--n", "2",
            "--seed", "7", "--pairs", "20000", "--out", str(out),
        )
        assert code == 0
        assert records[0]["claimed"] == pytest.approx(3.0)
        assert records[0]["passed"] is True
        assert out.exists()

    def test_double_run_byte_identical_modulo_wall_time(self, capsys, tmp_path):
        args = ["verify", "radial-bound", "--beta", "0.5", "--n", "2",
                "--seed", "9", "--pairs", "10000"]
        code1 = run_cli(args)
        text1 = capsys.readouterr().out
        code2 = run_cli(args)
        text2 = capsys.readouterr().out
        assert code1 == code2 == 0
        strip = lambda t: re.sub(r'"wall_time_ms": [0-9.e+-]+', "", t)  # noqa: E731
        assert strip(text1) == strip(text2)

    def test_config_file_with_flag_override(self, capsys, tmp_path):
        cfgfile = tmp_path / "scenario.cfg"
        cfgfile.write_text(
            "# spiral scenario\nc = 2.0\nn = 2\nseed = 5\npairs = 10000\n"
        )
        code, records = run(
            capsys, "verify", "spiral-bound", "--config", str(cfgfile),
            "--c", "0.5",
        )
        assert code == 0
        # the flag wins: claimed = n*c + 1 = 2
        assert records[0]["claimed"] == pytest.approx(2.0)

    def test_failing_scenario_exits_one(self, capsys):
        code, records = run(
            capsys, "verify", "metric-equivalence", "--cloud", "circle",
            "--points", "8", "--eps", "0.8", "--pairs", "100", "--seed", "7",
        )
        # an octagon's corner-to-corner path is 2.5 percent short of pi
        assert code == 1
        assert records[0]["passed"] is False

    @pytest.mark.parametrize("scenario, flag, first, second", [
        ("replication-constant", "--kind", "twist", "pl"),
        ("replication-constant", "--amplitude", "0.8", "0.3"),
        ("spiral-bound", "--profile", "log", "constant"),
    ])
    def test_svg_follows_the_parameters(self, capsys, tmp_path, scenario, flag,
                                        first, second):
        plots = []
        for value in (first, second):
            svg = tmp_path / f"{value}.svg"
            assert run_cli(["verify", scenario, flag, value, "--pairs", "2000",
                            "--svg", str(svg)]) == 0
            plots.append(svg.read_bytes())
        assert plots[0].startswith(b"<svg") and plots[0] != plots[1]

    def test_drift_scenario_with_svg(self, capsys, tmp_path):
        svg = tmp_path / "drift.svg"
        code, records = run(
            capsys, "verify", "replication-drift", "--svg", str(svg),
        )
        assert code == 0
        assert svg.exists()
        assert svg.read_text().startswith("<svg")


class TestEstimateCommand:
    def test_identity_estimate(self, capsys, tmp_path):
        path = tmp_path / "id.map"
        save_map(M.identity(2), path)
        code, records = run(
            capsys, "estimate", "--map", str(path), "--region", "ball:0,0:10",
            "--pairs", "5000", "--seed", "3",
        )
        assert code == 0
        rec = records[0]
        assert rec["lambda_lower"] == 1.0
        assert rec["op"] == "estimate"
        assert rec["map"] == "identity(dim=2)"
        assert {"x", "y", "ratio"} <= set(rec["worst_pair"])

    def test_claim_violation_exits_one(self, capsys, tmp_path):
        path = tmp_path / "aff.map"
        save_map(M.affine([[3.0, 0.0], [0.0, 1.0]]), path)
        code, records = run(
            capsys, "estimate", "--map", str(path), "--region", "ball:0,0:10",
            "--pairs", "50000", "--seed", "3", "--claim", "2.0",
        )
        assert code == 1
        assert records[0]["violated"] is True

    def test_valid_claim_exits_zero(self, capsys, tmp_path):
        path = tmp_path / "aff.map"
        save_map(M.affine([[3.0, 0.0], [0.0, 1.0]]), path)
        code, records = run(
            capsys, "estimate", "--map", str(path), "--region", "ball:0,0:10",
            "--pairs", "50000", "--seed", "3", "--claim", "3.0",
        )
        assert code == 0
        assert records[0]["violated"] is False

    def test_missing_map_file(self, capsys):
        assert run_cli(["estimate", "--map", "/nonexistent.map",
                        "--region", "ball:0,0:1"]) == 2

    @pytest.mark.parametrize("text", ["identity(dim=2", "identity(dim=[2])",
                                      "identity()", "nosuch(dim=2)",
                                      "identity(dim=2.5)", "identity(dim=.5)",
                                      "identity(dim=+.5)", "identity(dim=--1)",
                                      "identity(dim=0x10)", "identity(dim=2) #",
                                      'identity(dim="2")',
                                      "affine(matrix=[[2,0],[0,1]],ofset=[5,5])",
                                      "identity(dim=2,dim=3)"])
    def test_malformed_map_text_is_usage_error(self, capsys, tmp_path, text):
        path = tmp_path / "bad.map"
        path.write_text(text + "\n")
        err = assert_usage_error(capsys, "estimate", "--map", str(path),
                                 "--region", "ball:0,0:1", "--pairs", "100")
        if "[2]" in text:
            assert "identity" in err  # the node that refused the value

    @pytest.mark.parametrize("text", [
        "inverse(map=" * 3000 + "identity(dim=2)" + ")" * 3000,
        "identity(dim=" + "[" * 3000 + "]" * 3000 + ")",
        "inverse(map=" * 300 + "identity(dim=2)" + ")" * 300,  # too deep to write back
    ])
    def test_deep_map_text_is_usage_error(self, capsys, tmp_path, text):
        path = tmp_path / "deep.map"
        path.write_text(text + "\n")
        err = assert_usage_error(capsys, "estimate", "--map", str(path),
                                 "--region", "ball:0,0:1", "--pairs", "100")
        assert "deep" in err

    @pytest.mark.parametrize("region", ["ball:0,0:inf", "ball:0,0:nan", "ball:nan,0:1",
                                        "box:0,0:inf,1", "annulus:0:inf",
                                        "annulus:1e-3:1e200", "ball:0,0:1e308"])
    def test_hostile_region_is_usage_error(self, capsys, tmp_path, region):
        path = tmp_path / "id.map"
        save_map(M.identity(2), path)
        err = assert_usage_error(capsys, "estimate", "--map", str(path),
                                 "--region", region, "--pairs", "100")
        assert region in err

    def test_cutoff_spiral_claim_of_one_is_refuted(self, capsys, tmp_path):
        # the twist lives on 1 < r < 3; the witness rows reach down to the
        # annulus' inner radius 1e-3, so they sample it
        path = tmp_path / "cutoff.map"
        save_map(M.spiral_map(M.CutoffRotationProfile(bump_profile(1.0, 1.0, 3.0),
                                                      (0, 1), 2)), path)
        code, records = run(capsys, "estimate", "--map", str(path),
                            "--region", "annulus:1e-3:1e4", "--claim", "1.0")
        assert code == 1 and records[0]["violated"] is True
        assert records[0]["lambda_lower"] > 3.0
        # its exact constant is 4.0346357: a claim 1% under it is refuted too
        code, records = run(capsys, "estimate", "--map", str(path),
                            "--region", "annulus:1e-3:1e4", "--claim", "4.0")
        assert code == 1 and records[0]["violated"] is True
        assert records[0]["lambda_lower"] <= 4.0346357 * (1.0 + 1e-6)

    def test_cutoff_spiral_is_the_identity_off_its_support(self, capsys, tmp_path):
        # the map is the identity for r >= 3, so no pair in the box sees the twist
        path = tmp_path / "cutoff.map"
        save_map(M.spiral_map(M.CutoffRotationProfile(bump_profile(1.0, 1.0, 3.0),
                                                      (0, 1), 2)), path)
        code, records = run(capsys, "estimate", "--map", str(path),
                            "--region", "box:10,10:20,20", "--claim", "1.0001")
        assert code == 0 and records[0]["violated"] is False
        assert records[0]["lambda_lower"] == 1.0

    def test_non_utf8_map_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "binary.map"
        path.write_bytes(b"identity(dim=2)\n\xff\n")
        assert_usage_error(capsys, "estimate", "--map", str(path),
                           "--region", "ball:0,0:1", "--pairs", "100")

    @pytest.mark.parametrize("region, flags", [
        ("ball:0,0,0:1", []),  # a 3-d region for a 2-d map
        ("ball:0,0:1", ["--pairs", "0"]),
        ("ball:0,0:1", ["--claim", "0.5"]),
    ])
    def test_bad_set_up_is_usage_error_before_sampling(self, capsys, tmp_path,
                                                       monkeypatch, region, flags):
        def no_sampling(*args):
            raise AssertionError("sampled before the set-up was checked")

        monkeypatch.setattr(est, "_pair_chunks", no_sampling)
        path = tmp_path / "aff.map"
        save_map(M.affine([[3.0, 0.0], [0.0, 1.0]]), path)
        assert_usage_error(capsys, "estimate", "--map", str(path),
                           "--region", region, *flags)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_values_are_strict_json(self, capsys, tmp_path):
        # diag(1e307, 1) overflows on most of the ball: an infinite bound
        # and a NaN ratio, written as strings, not as NaN or Infinity
        def refuse(name):
            raise AssertionError(f"{name} is not JSON")

        path = tmp_path / "huge.map"
        path.write_text("affine(matrix=[[1e307,0],[0,1]])\n")
        out = tmp_path / "out.json"
        assert run_cli(["estimate", "--map", str(path), "--region", "ball:0,0:100",
                        "--claim", "2", "--pairs", "10000", "--out", str(out)]) == 1
        stdout = capsys.readouterr().out
        assert stdout == out.read_text()
        rec = json.loads(stdout, parse_constant=refuse)
        assert rec["lambda_lower"] == "inf"
        assert rec["violated"] is True
        assert rec["violation"] == rec["worst_pair"]

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_nan_ratio_is_written_as_nan(self, capsys, tmp_path):
        # every image of 1e308 I on this ball overflows to +inf, so every
        # image distance is inf - inf = NaN
        path = tmp_path / "huge.map"
        path.write_text("affine(matrix=[[1e308,0],[0,1e308]])\n")
        assert run_cli(["estimate", "--map", str(path), "--region", "ball:50,50:1",
                        "--claim", "2", "--pairs", "1000"]) == 1
        stdout = capsys.readouterr().out
        assert '"ratio": "nan"' in stdout
        rec = json.loads(stdout)
        assert rec["violation"] == rec["worst_pair"]

    def test_overflow_warnings_stay_off_stderr(self, capsys, tmp_path):
        # numpy warns of overflow in det (parse) and matmul (evaluation)
        # and of inf - inf (distances); the record already says it all
        path = tmp_path / "huge.map"
        path.write_text("affine(matrix=[[1e308,0],[0,1e308]])\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning would escape run_cli
            code = run_cli(["estimate", "--map", str(path), "--region", "ball:50,50:1",
                            "--claim", "2", "--pairs", "1000"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == ""
        rec = json.loads(captured.out)
        assert rec["lambda_lower"] == "inf"
        assert rec["violated"] is True
        assert rec["violation"] == rec["worst_pair"]

    def test_histogram_svg(self, capsys, tmp_path):
        path = tmp_path / "id.map"
        svg = tmp_path / "h.svg"
        save_map(M.spiral_map(M.LogSpiralProfile(1.0, (0, 1), 2)), path)
        code, _ = run(
            capsys, "estimate", "--map", str(path), "--region",
            "annulus:0.001:100", "--pairs", "5000", "--svg", str(svg),
        )
        assert code == 0
        assert svg.read_text().startswith("<svg")


class TestClaimIsJudgedOnTheEstimateStream:
    """``estimate --claim`` draws and evaluates one pair stream: the
    claim is refuted exactly when the bound beats it by more than the
    refutation slack, and the witness is the bound's worst pair."""

    REGION = "ball:0,0:300"

    @pytest.fixture
    def twist(self, tmp_path):
        m = M.disk_replication(M.make_twist_disk_map(dim=2, amplitude=0.7))
        path = tmp_path / "twist.map"
        save_map(m, path)
        return m, str(path)

    def estimate(self, capsys, path, *flags):
        return run(capsys, "estimate", "--map", path, "--region", self.REGION,
                   "--pairs", "20000", "--seed", "5", *flags)

    def test_one_stream_per_run(self, capsys, monkeypatch, twist):
        streams = []
        draw = est._pair_chunks

        def counting(*args):
            streams.append(args[-1])
            return draw(*args)

        monkeypatch.setattr(est, "_pair_chunks", counting)
        self.estimate(capsys, twist[1], "--claim", "1.2")
        assert streams == ["bilip_lower_bound"]

    def test_marginal_claim_is_refuted(self, capsys, twist):
        # the bound beats 1.4158 by 2.8e-5 relative, beyond the slack
        code, (rec,) = self.estimate(capsys, twist[1], "--claim", "1.4158")
        assert rec["lambda_lower"] == 1.415839330696192
        assert code == 1
        assert rec["violated"] is True
        assert rec["violation"] == rec["worst_pair"]

    @pytest.mark.parametrize("factor", [1.0, 1.0 + 0.5e-6, 1.0 + 2e-6, 1.01, 1.3])
    def test_violated_exactly_beyond_the_slack(self, capsys, twist, factor):
        m, path = twist
        _, (bound,) = self.estimate(capsys, path)
        lam = bound["lambda_lower"]
        claim = lam / factor
        code, (rec,) = self.estimate(capsys, path, "--claim", repr(claim))
        violated = lam > claim * (1.0 + est.REFUTATION_SLACK)
        assert violated == (factor > 1.0 + est.REFUTATION_SLACK)
        assert rec["violated"] is violated
        assert code == (1 if violated else 0)
        assert {k: rec[k] for k in bound if k != "elapsed_ms"} == \
            {k: bound[k] for k in bound if k != "elapsed_ms"}
        # the violation is the library bound's worst pair on the same stream
        cfg = est.SamplerConfig(seed=5, region=parse_region(self.REGION, 2), n_pairs=20000)
        witness = est.bilip_lower_bound(m, cfg).worst_pair
        if violated:
            assert rec["violation"] == rec["worst_pair"]
            assert [list(witness[0]), list(witness[1]), witness[2]] == \
                [rec["violation"][k] for k in ("x", "y", "ratio")]
        else:
            assert "violation" not in rec


class TestDriftCommand:
    def test_replication_witnesses(self, capsys, tmp_path):
        path = tmp_path / "rep.map"
        save_map(M.disk_replication(M.make_twist_disk_map(dim=2)), path)
        code, records = run(
            capsys, "drift", "--map", str(path), "--witnesses", "replication",
            "-K", "40", "--expect", "exceeds",
        )
        assert code == 0
        assert records[0]["verdict"] == "exceeds-threshold-with-growth"
        drifts = records[0]["drifts"]
        np.testing.assert_allclose(np.array(drifts[1:]) / np.array(drifts[:-1]),
                                   2.0, rtol=1e-12)

    def test_unknown_witness_family_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "rep.map"
        save_map(M.disk_replication(M.make_twist_disk_map(dim=2)), path)
        assert run_cli(["drift", "--map", str(path), "--witnesses", "psi", "-K", "5"]) == 2
        assert capsys.readouterr().out == ""

    def test_spiral_witnesses_bounded_for_cutoff(self, capsys, tmp_path):
        from bilip.profiles import bump_profile

        path = tmp_path / "cut.map"
        save_map(
            M.spiral_map(M.CutoffRotationProfile(bump_profile(1.0, 1.0, 3.0),
                                                 (0, 1), 2)),
            path,
        )
        code, records = run(
            capsys, "drift", "--map", str(path), "--witnesses", "ray",
            "--x0", "1,0", "-K", "30", "--expect", "bounded",
        )
        assert code == 0
        assert records[0]["verdict"] == "bounded-below-threshold"

    @pytest.mark.parametrize("witnesses, flags", [
        ("replication", ["--x0", "a,b"]),
        ("replication", ["--x0", "1,0,0"]),  # a 3-d point for a 2-d map
        ("replication", ["--x0", "nan,0"]),
        ("replication", ["--x0", "0.9,0.9"]),  # outside the open unit ball
        ("replication", ["-K", "0"]),
        ("replication", ["-K", "-3"]),
        ("ray", ["--x0", "1,0,0"]),
        ("ray", ["-K", "-1"]),
    ])
    def test_bad_drift_input_is_usage_error(self, capsys, tmp_path, witnesses, flags):
        path = tmp_path / "rep.map"
        save_map(M.disk_replication(M.make_twist_disk_map(dim=2)), path)
        assert_usage_error(capsys, "drift", "--map", str(path),
                           "--witnesses", witnesses, *flags)

    def test_expect_mismatch_exits_one(self, capsys, tmp_path):
        path = tmp_path / "id.map"
        save_map(M.identity(2), path)
        code, _ = run(
            capsys, "drift", "--map", str(path), "--witnesses", "ray",
            "--x0", "1,0", "-K", "10", "--expect", "exceeds",
        )
        assert code == 1


_GRID = pl.kuhn_triangulation(2, (-1.0, 1.0), 2).vertices  # 3 x 3, the centre is row 4


class TestPlNormCommand:
    def test_norm_of_twist(self, capsys, tmp_path):
        f = pl.pl_twist_example(2, 6, 0.3)
        path = tmp_path / "twist.map"
        save_map(f, path)
        code, records = run(capsys, "pl-norm", "--plmap", str(path))
        assert code == 0
        rec = records[0]
        assert rec["differential_norm"] == pytest.approx(
            pl.pl_differential_norm(f), rel=1e-12
        )
        assert rec["bilip_constant"] == pytest.approx(
            pl.pl_bilip_constant(f), rel=1e-12
        )

    def test_one_singular_value_sweep(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "twist.map"
        save_map(pl.pl_twist_example(2, 6, 0.3), path)
        sweeps = []
        svd = pl.largest_singular_values
        monkeypatch.setattr(pl, "largest_singular_values",
                            lambda mats: sweeps.append(len(mats)) or svd(mats))
        code, _ = run(capsys, "pl-norm", "--plmap", str(path))
        assert code == 0
        assert sweeps == [2 * 72]  # the 72 differentials and their inverses, once

    @pytest.mark.parametrize("edit", [
        lambda t: t.replace("images=[[-1,-1],", "images=["),        # one image too few
        lambda t: t.replace("resolution=3", "resolution=0"),        # an empty grid
        lambda t: t.replace(",boundary_fixed=true", ""),            # a missing field
        lambda t: t.replace("images=[[-1,-1],", "images=[[-1],"),   # a 1-d image
        lambda t: t.replace("images=[[-1,-1],", "images=[[-1,-1e999],"),  # not finite
        lambda t: t[:len(t) // 2],                                  # truncated text
        lambda t: f"pl(map={t.strip()})",                           # a pl node
        lambda t: "identity(dim=2)",                                # a map expression
    ], ids=["few-images", "resolution-0", "missing-field", "short-image", "non-finite",
            "truncated", "pl-node", "identity-node"])
    def test_malformed_plmap_is_usage_error(self, capsys, tmp_path, edit):
        """pl-norm reads one well-formed plmap(...) node and nothing else."""
        path = tmp_path / "twist.map"
        save_map(pl.pl_twist_example(2, 3, 0.2), path)
        text = path.read_text()
        assert edit(text) != text
        path.write_text(edit(text))
        assert_usage_error(capsys, "pl-norm", "--plmap", str(path))

    @staticmethod
    def free_map(path, images):
        """Save the map with these vertex images on the resolution-2 grid
        of [-1, 1]^2 (``_GRID``), not boundary-fixed, to path."""
        save_map(pl.PLMap(pl.kuhn_triangulation(2, (-1.0, 1.0), 2), images,
                          boundary_fixed=False), path)

    @pytest.mark.parametrize("images", [
        _GRID * [-1.0, 1.0],                            # a reflection
        np.vstack([_GRID[:4], _GRID[:1], _GRID[5:]]),  # the centre onto a corner
    ], ids=["reflection", "collapsed-centre"])
    def test_non_homeomorphism_is_usage_error(self, capsys, tmp_path, images):
        """A map that is not a PL homeomorphism has no bi-Lipschitz constant
        to check; it is refused before the run, not a failed check."""
        path = tmp_path / "bad.map"
        self.free_map(path, images)
        err = assert_usage_error(capsys, "pl-norm", "--plmap", str(path))
        assert "not a PL homeomorphism" in err

    def test_rotation_by_pi_passes(self, capsys, tmp_path):
        path = tmp_path / "minus.map"
        self.free_map(path, -_GRID)  # x -> -x in 2-d keeps every orientation
        code, records = run(capsys, "pl-norm", "--plmap", str(path))
        assert code == 0
        assert records[0]["bilip_constant"] == pytest.approx(1.0, rel=1e-12)

    def test_non_utf8_plmap_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "binary.map"
        path.write_bytes(b"plmap(dim=2,\xff\xfe\n")
        assert_usage_error(capsys, "pl-norm", "--plmap", str(path))


class TestGeodesicCommand:
    def test_circle_cloud(self, capsys, tmp_path):
        path = tmp_path / "circle.csv"
        est.save_cloud_csv(est.circle_cloud(2000), path)
        code, records = run(
            capsys, "geodesic", "--cloud", str(path), "--pairs", "500",
            "--eps", "0.05", "--pair", "0", "1000",
        )
        assert code == 0
        rec = records[0]
        assert rec["pair"]["graph_length"] == pytest.approx(np.pi, rel=0.01)
        assert rec["pair"]["chord"] == pytest.approx(2.0, rel=1e-9)

    @pytest.mark.parametrize("pair", [("0", "999"), ("-1", "3")])
    def test_pair_out_of_range_is_usage_error(self, capsys, tmp_path, pair):
        path = tmp_path / "circle.csv"
        est.save_cloud_csv(est.circle_cloud(50), path)
        err = assert_usage_error(capsys, "geodesic", "--cloud", str(path),
                                 "--pairs", "10", "--pair", *pair)
        assert "50 points" in err

    def test_auto_eps(self, capsys, tmp_path):
        path = tmp_path / "circle.csv"
        est.save_cloud_csv(est.circle_cloud(500), path)
        code, records = run(capsys, "geodesic", "--cloud", str(path),
                            "--pairs", "100")
        assert code == 0
        # four nearest-neighbour gaps, each the chord 2 sin(pi / 500)
        assert records[0]["eps"] == pytest.approx(8.0 * np.sin(np.pi / 500), rel=1e-12)


_COLD_START = """
import json, sys
from bilip import cli
codes = [cli.run_cli(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes,
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def run_fresh(*argvs):
    """Exit codes of ``run_cli`` on each argument list in turn, and the
    scipy modules loaded after them, in a new interpreter."""
    env = dict(os.environ, PYTHONPATH=str(Path(bilip.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", _COLD_START, json.dumps(argvs)],
                          capture_output=True, text=True, timeout=120, env=env,
                          check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


class TestColdStart:
    def test_map_commands_load_no_scipy(self, tmp_path):
        radial = tmp_path / "radial.map"
        save_map(M.radial_extension(M.make_latitude_sphere_map(0.5, dim=2)), radial)
        rep = tmp_path / "rep.map"
        save_map(M.disk_replication(M.make_twist_disk_map(dim=2)), rep)
        plmap = tmp_path / "twist.map"
        save_map(pl.pl_twist_example(2, 4, 0.2), plmap)
        got = run_fresh(
            ["estimate", "--map", str(radial), "--region", "ball:0,0:10",
             "--pairs", "2000", "--seed", "3", "--claim", "3.0"],
            ["drift", "--map", str(rep), "--witnesses", "replication", "-K", "10"],
            ["pl-norm", "--plmap", str(plmap)],
        )
        assert got == {"codes": [0, 0, 0], "scipy": []}

    def test_graph_metric_loads_scipy_on_first_use(self):
        got = run_fresh(["verify", "metric-equivalence", "--points", "2000",
                         "--pairs", "500", "--eps", "0.05"])
        assert got["codes"] == [0]
        assert "scipy.sparse.csgraph" in got["scipy"]


class TestConfigHelpers:
    def test_parse_config_file(self, tmp_path):
        path = tmp_path / "a.cfg"
        path.write_text("alpha = 1.5  # comment\n\n# full comment\nkind = twist\n")
        assert parse_config_file(path) == {"alpha": "1.5", "kind": "twist"}

    def test_bad_config_line(self, tmp_path):
        path = tmp_path / "b.cfg"
        path.write_text("not a key value pair\n")
        with pytest.raises(ConfigError):
            parse_config_file(path)

    def test_parse_region(self):
        r = parse_region("ball:1,2:3", 2)
        assert r.center == (1.0, 2.0) and r.inner == 0.0 and r.outer == 3.0
        r = parse_region("box:0,0:1,2", 2)
        assert r.hi == (1.0, 2.0)
        r = parse_region("annulus:0.5:10", 2)
        assert r.inner == 0.5 and r.outer == 10.0
        with pytest.raises(ConfigError):
            parse_region("cube:1:2", 2)
        with pytest.raises(ConfigError):
            parse_region("ball:1,2", 2)

    def test_default_seed_is_seven(self, capsys):
        code, records = run(capsys, "verify", "matrix-norms", "--pairs", "100")
        assert code == 0
        assert records[0]["seed"] == 7
