"""Tests for the verification scenarios and report plumbing."""

import importlib.util
import json
import re
from pathlib import Path

import numpy as np
import pytest

from bilip import estimators as E
from bilip import maps as M
from bilip import verify as V
from bilip.cli import run_cli
from bilip.core import rotation_matrix
from bilip.errors import ConfigError
from bilip.profiles import bump_profile


def small_cfg(seed=7, radius=100.0, n_pairs=20_000, dim=2):
    return E.SamplerConfig(seed=seed, region=E.ball((0.0,) * dim, radius),
                           n_pairs=n_pairs)


def strip_wall_time(text):
    return re.sub(r'"wall_time_ms": [0-9.e+-]+', '"wall_time_ms": 0', text)


class TestRadialScenario:
    def test_latitude_passes(self):
        phi = M.make_latitude_sphere_map(0.5, dim=2)
        rep = V.verify_radial_bound(phi, small_cfg(), sphere_pairs=20_000)
        assert rep.passed
        assert rep.observed <= rep.claimed * (1 + 1e-6)

    def test_orthogonal_is_isometry(self):
        phi = M.OrthogonalSphereMap(rotation_matrix((0, 1), 1.0, 2))
        rep = V.verify_radial_bound(phi, small_cfg(), sphere_pairs=20_000)
        assert rep.passed
        assert abs(rep.observed - 1.0) <= 1e-9
        assert rep.claimed == pytest.approx(2.0, abs=1e-6)


class TestReplicationScenario:
    def test_twist_passes(self):
        g = M.make_twist_disk_map(dim=2)
        rep = V.verify_replication_constant(g, small_cfg(radius=300.0))
        assert rep.passed
        assert rep.details["cross_disk_max_ratio"] <= rep.claimed * (1 + 1e-6)

    def test_identity_disk_map_observes_one(self):
        from bilip.profiles import CubicProfile

        ident = M.TwistDiskMap(
            CubicProfile.from_hermite([0.0, 1.0], [0.0, 0.0], [0.0, 0.0]),
            (0, 1), 2)
        rep = V.verify_replication_constant(ident, small_cfg(radius=300.0))
        assert rep.passed
        assert abs(rep.observed - 1.0) <= 1e-9

    def test_undersized_claim_fails(self):
        g = M.make_twist_disk_map(dim=2)
        rep = V.verify_replication_constant(g, small_cfg(radius=300.0),
                                            claimed=1.01)
        assert not rep.passed

    def test_missing_claim_rejected(self):
        g = M.make_twist_disk_map(dim=2)
        g.lambda_claimed = None
        with pytest.raises(ConfigError):
            V.verify_replication_constant(g, small_cfg(radius=300.0))


class TestDriftScenario:
    def test_drift_law(self):
        g = M.make_twist_disk_map(dim=2)
        rep = V.verify_replication_drift(g, np.array([0.3125, -0.25]))
        assert rep.passed
        assert rep.details["max_relative_error"] <= 1e-12
        assert rep.details["verdict"] == E.VERDICT_EXCEEDS


class TestHomomorphismScenario:
    def test_disk_replication_kind(self):
        g = M.make_twist_disk_map(dim=2, amplitude=0.8)
        h = M.make_twist_disk_map(dim=2, amplitude=-0.5)
        rep = V.verify_homomorphism("disk_replication", g, h,
                                    small_cfg(radius=70.0), n_points=5000)
        assert rep.passed
        assert rep.details["composition_residual"] <= 1e-9
        assert rep.details["restriction_residual"] <= 1e-12
        assert rep.details["drift_witness"] > 0

    def test_inverse_pair_composes_to_identity(self):
        g = M.make_twist_disk_map(dim=2, amplitude=0.8)
        h = g.inverse()
        f = M.disk_replication(M.compose_disk_maps(g, h))
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(1000, 2)) * 30.0
        assert np.abs(M.evaluate_points(f, pts) - pts).max() <= 1e-12

    def test_radial_kind(self):
        g = M.make_latitude_sphere_map(0.5, dim=2)
        h = M.make_latitude_sphere_map(-0.3, dim=2)
        rep = V.verify_homomorphism("radial", g, h, small_cfg(radius=10.0),
                                    n_points=5000)
        assert rep.passed

    def test_translated_kind(self):
        g = M.make_twist_disk_map(dim=2, amplitude=0.6)
        h = M.make_twist_disk_map(dim=2, amplitude=-0.3)
        rep = V.verify_homomorphism("translated_replication", g, h,
                                    small_cfg(radius=25.0), n_points=5000)
        assert rep.passed

    def test_unknown_kind(self):
        g = M.make_twist_disk_map(dim=2)
        with pytest.raises(ConfigError):
            V.verify_homomorphism("bogus", g, g, small_cfg())


class TestProductScenario:
    def test_identity_product_with_unit_params(self):
        rep = V.verify_product_qi(M.identity(2), (1.0, 0.0),
                                  M.identity(2), (1.0, 0.0),
                                  small_cfg(dim=4, radius=20.0))
        assert rep.passed

    def test_composed_params_pass(self):
        phi = M.make_latitude_sphere_map(0.5, dim=2)
        f = M.radial_extension(phi)
        g = M.spiral_map(M.LogSpiralProfile(1.0, (0, 1), 2))
        rep = V.verify_product_qi(f, (3.0, 0.0), g, (3.0, 0.0),
                                  small_cfg(dim=4, radius=50.0))
        assert rep.passed
        assert rep.details["drift_identity_error"] <= 1e-12
        assert rep.details["c_density_product"] <= rep.details["c_density_bound"]

    def test_undersized_params_fail(self):
        f = M.affine([[3.0, 0.0], [0.0, 1.0]])
        g = M.identity(2)
        rep = V.verify_product_qi(f, (1.5, 0.0), g, (1.0, 0.0),
                                  small_cfg(dim=4, radius=20.0))
        assert not rep.passed


class TestSpiralScenario:
    def spiral_cfg(self, seed=7, n_pairs=20_000, dim=2):
        return E.SamplerConfig(seed=seed, region=E.annulus((0.0,) * dim, 1e-3, 1e4),
                               n_pairs=n_pairs)

    def test_log_spiral_passes(self):
        p = M.LogSpiralProfile(1.0, (0, 1), 2)
        rep = V.verify_spiral_bound(p, self.spiral_cfg())
        assert rep.passed
        assert rep.claimed == pytest.approx(3.0)
        assert rep.details["equal_radius_worst_deviation"] <= 1e-9

    def test_cutoff_profile_bounded_kernel(self):
        p = M.CutoffRotationProfile(bump_profile(1.0, 1.0, 3.0), (0, 1), 2)
        rep = V.verify_spiral_bound(p, self.spiral_cfg())
        assert rep.passed
        assert rep.details["far_field"] == "identity"
        assert rep.details["verdict"] == E.VERDICT_BOUNDED

    def test_constant_rotation_growing_drift(self):
        p = M.ConstantRotationProfile(rotation_matrix((0, 1), 2.0, 2))
        rep = V.verify_spiral_bound(p, self.spiral_cfg())
        assert rep.passed
        assert rep.details["far_field"] == "rotation"
        assert rep.details["verdict"] == E.VERDICT_EXCEEDS
        assert rep.details["closed_form_rel_error"] <= 1e-9


class TestMatrixNormScenario:
    def test_passes(self):
        rep = V.verify_matrix_norms(7, n_matrices=300)
        assert rep.passed
        assert rep.observed == 0.0


class TestMetricScenario:
    def test_circle(self):
        rep = V.verify_metric_equivalence("circle", 4000, 0.01, 1500, 7,
                                          expected_ratio=float(np.pi / 2))
        assert rep.passed
        assert rep.details["worst_undercut"] >= -1e-12

    def test_unknown_cloud(self):
        with pytest.raises(ConfigError):
            V.verify_metric_equivalence("torus", 100, 0.1, 10, 7)


class TestReportDeterminism:
    def test_byte_identical_up_to_wall_time(self):
        phi = M.make_latitude_sphere_map(0.5, dim=2)
        a = V.verify_radial_bound(phi, small_cfg(), sphere_pairs=10_000).to_json()
        b = V.verify_radial_bound(phi, small_cfg(), sphere_pairs=10_000).to_json()
        assert strip_wall_time(a) == strip_wall_time(b)

    def test_json_is_valid_and_complete(self):
        rep = V.verify_matrix_norms(3, n_matrices=50)
        data = json.loads(rep.to_json())
        for key in ("scenario", "passed", "claimed", "observed", "worst",
                    "n_samples", "seed", "wall_time_ms", "tool_version",
                    "details"):
            assert key in data

    def test_seed_recorded(self):
        rep = V.verify_matrix_norms(99, n_matrices=50)
        assert rep.seed == 99


class TestDefaultSuite:
    def test_all_pass_and_cover_scenarios(self):
        reports = V.default_suite(seed=11, n_pairs=20_000)
        assert all(r.passed for r in reports)
        names = {r.scenario for r in reports}
        assert names == {
            "radial-bound", "replication-constant", "replication-drift",
            "homomorphism", "product-qi", "spiral-bound", "matrix-norms",
            "metric-equivalence",
        }
        # every report serializes to plain JSON (no numpy scalar leaks)
        for r in reports:
            data = json.loads(r.to_json())
            assert isinstance(data["passed"], bool)


def _bench_tracer():
    """bench/tracer.py, loaded from its file: it is no package."""
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestTracerContract:
    """The benchmark's tracer times each scenario by replacing the
    ``verify_*`` and ``default_suite`` attributes of ``bilip.verify``;
    the registry must look them up when it runs, not hold the function
    objects it saw at import."""

    VERIFIERS = {name: scenario
                 for name, scenario in _bench_tracer()._SCENARIOS.items()
                 if name != "default_suite"}

    def patch_verifiers(self, monkeypatch):
        calls = []
        for name, scenario in self.VERIFIERS.items():
            def fake(*args, scenario=scenario, **kwargs):
                calls.append(scenario)
                return V.Report(scenario, True, None, None, None, 0, 0, 0.0)

            monkeypatch.setattr(V, name, fake)
        return calls

    def test_default_suite_calls_the_patched_verifiers(self, monkeypatch):
        calls = self.patch_verifiers(monkeypatch)
        reports = V.default_suite(seed=1, n_pairs=100)
        assert calls == [name for name, _ in V.SUITE]
        assert [r.scenario for r in reports] == calls

    @pytest.mark.parametrize("scenario", sorted(VERIFIERS.values()))
    def test_cli_calls_the_patched_verifier(self, monkeypatch, capsys, scenario):
        calls = self.patch_verifiers(monkeypatch)
        assert run_cli(["verify", scenario, "--pairs", "100"]) == 0
        assert calls == [scenario]

    def test_cli_all_calls_the_patched_suite(self, monkeypatch, capsys):
        seen = []
        monkeypatch.setattr(V, "default_suite",
                            lambda seed, n_pairs: seen.append((seed, n_pairs)) or [])
        assert run_cli(["verify", "all", "--seed", "3", "--pairs", "100"]) == 0
        assert seen == [(3, 100)]
