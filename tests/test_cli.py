"""End-to-end tests of the command-line interface."""

import json
import re
import warnings

import numpy as np
import pytest

from bilip import estimators as est
from bilip import maps as M
from bilip import pl
from bilip.cli import parse_config_file, parse_region, run_cli
from bilip.errors import ConfigError
from bilip.mapformat import save_map


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
                                      "identity(dim=2.5)"])
    def test_malformed_map_text_is_usage_error(self, capsys, tmp_path, text):
        path = tmp_path / "bad.map"
        path.write_text(text + "\n")
        err = assert_usage_error(capsys, "estimate", "--map", str(path),
                                 "--region", "ball:0,0:1", "--pairs", "100")
        if "[2]" in text:
            assert "identity" in err  # the node that refused the value

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
        # the falsifier, run on the bound's own stream, finds the same pair
        cfg = est.SamplerConfig(seed=5, region=parse_region(self.REGION, 2), n_pairs=20000)
        witness = est.falsify_bilip_bound(m, claim, cfg, op_name="bilip_lower_bound")
        if violated:
            assert rec["violation"] == rec["worst_pair"]
            assert [list(witness[0]), list(witness[1]), witness[2]] == \
                [rec["violation"][k] for k in ("x", "y", "ratio")]
        else:
            assert "violation" not in rec
            assert witness is None


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

    def test_psi_spelling_is_accepted(self, capsys, tmp_path):
        path = tmp_path / "rep.map"
        save_map(M.disk_replication(M.make_twist_disk_map(dim=2)), path)
        code, records = run(
            capsys, "drift", "--map", str(path), "--witnesses", "psi", "-K", "5",
        )
        assert code == 0
        assert records[0]["witness_kind"] == "replication"

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


class TestPlNormCommand:
    def test_norm_of_twist(self, capsys, tmp_path):
        f = pl.pl_twist_example(2, 6, 0.3)
        path = tmp_path / "twist.csv"
        pl.save_plmap_csv(f, path)
        code, records = run(capsys, "pl-norm", "--plmap", str(path))
        assert code == 0
        rec = records[0]
        assert rec["differential_norm"] == pytest.approx(
            pl.pl_differential_norm(f), rel=1e-12
        )
        assert rec["bilip_constant"] == pytest.approx(
            pl.pl_bilip_constant(f), rel=1e-12
        )


    @pytest.mark.parametrize("edit", [
        ("dim,2", "dim,x"),                # bad header value
        ("resolution,3", "resolution,0"),  # header the triangulation rejects
        ("\n0,", "\nx,"),                  # row index that is not an integer
        ("\n0,", "\n99,"),                 # row index out of range
        ("\n0,", "\n-1,"),                 # negative row index
        ("\n0,-1,", "\n0,"),               # short row
        ("\n0,-1,-1", "\n0,-1,nan"),       # non-finite coordinate
        ("\n0,-1,-1\n", "\n"),             # missing vertex row
    ])
    def test_malformed_csv_is_usage_error(self, capsys, tmp_path, edit):
        path = tmp_path / "twist.csv"
        pl.save_plmap_csv(pl.pl_twist_example(2, 3, 0.2), path)
        text = path.read_text()
        assert edit[0] in text
        path.write_text(text.replace(edit[0], edit[1], 1))
        assert_usage_error(capsys, "pl-norm", "--plmap", str(path))


    def test_non_utf8_csv_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "binary.csv"
        path.write_bytes(b"dim,2\n\xff\xfe\n")
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
        assert records[0]["eps"] > 0


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
        assert r.center == (1.0, 2.0) and r.radius == 3.0
        r = parse_region("box:0,0:1,2", 2)
        assert r.hi == (1.0, 2.0)
        r = parse_region("annulus:0.5:10", 2)
        assert r.inner == 0.5 and r.outer == 10.0
        with pytest.raises(ConfigError):
            parse_region("cube:1:2", 2)
        with pytest.raises(ConfigError):
            parse_region("ball:1,2", 2)

    def test_seed_env_override(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("BILIP_SEED", "123")
        code, records = run(capsys, "verify", "matrix-norms", "--pairs", "100")
        assert code == 0
        assert records[0]["seed"] == 123

    def test_malformed_seed_env_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("BILIP_SEED", "abc")
        assert run_cli(["verify", "matrix-norms", "--pairs", "100"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "BILIP_SEED" in captured.err and "Traceback" not in captured.err
