"""Round-trip and parse tests for the canonical map text format."""

import numpy as np
import pytest

import bilip.pl
from bilip import maps as M
from bilip.core import rotation_matrix
from bilip.errors import MapFormatError
from bilip.mapformat import load_map, map_to_text, parse_map, save_map
from bilip.pl import pl_twist_example
from bilip.profiles import bump_profile


def map_zoo():
    phi = M.make_latitude_sphere_map(1.0 / 3.0, dim=2)  # awkward float
    twist = M.make_twist_disk_map(dim=2)
    yield M.identity(3)
    yield M.affine([[3.0, 1.0 / 7.0], [0.0, 1.0]], [0.1, -0.2])
    yield M.radial_extension(phi)
    yield M.radial_extension(M.OrthogonalSphereMap(rotation_matrix((0, 1), 0.7, 2)))
    yield M.radial_extension(
        M.ConjugatedSphereMap(rotation_matrix((0, 1), 0.3, 2), phi)
    )
    yield M.radial_extension(M.compose_sphere_maps(phi, phi.inverse()))
    yield M.disk_replication(twist)
    yield M.disk_replication(M.pl_disk_map(pl_twist_example(2, 4, 0.3)))
    yield M.disk_replication(M.compose_disk_maps(twist, twist.inverse()))
    yield M.translated_replication(uniform=twist)
    yield M.translated_replication(disk_maps=[None, twist])
    yield M.product_map(M.identity(2), M.spiral_map(M.LogSpiralProfile(0.5, (0, 1), 2)))
    yield M.spiral_map(M.ConstantRotationProfile(rotation_matrix((0, 1), 1.0, 3)))
    yield M.spiral_map(M.CutoffRotationProfile(bump_profile(1.0, 1.0, 3.0), (0, 1), 2))
    yield M.pl_homeomorphism(pl_twist_example(2, 4, 0.25))
    yield M.compose(M.disk_replication(twist), M.identity(2))
    yield M.inverse(M.spiral_map(M.LogSpiralProfile(1.0, (0, 1), 2)))
    yield M.disk_replication(M.pl_disk_map(pl_twist_example(2, 4, 0.3)).inverse())


class TestRoundTrip:
    @pytest.mark.parametrize("idx", range(len(list(map_zoo()))))
    def test_eval_identical_after_round_trip(self, idx):
        m = list(map_zoo())[idx]
        text = map_to_text(m)
        m2 = parse_map(text)
        assert map_to_text(m2) == text
        assert m2.dim == m.dim
        assert m2.lambda_claimed == m.lambda_claimed
        rng = np.random.default_rng(idx)
        pts = rng.normal(size=(200, m.dim)) * 20.0
        assert np.array_equal(M.evaluate_points(m, pts), M.evaluate_points(m2, pts))

    def test_non_unit_axis_round_trips_exactly(self):
        m = M.radial_extension(M.LatitudeSphereMap(0.4, [0.3, -0.2, 0.9]).inverse())
        m2 = parse_map(map_to_text(m))
        assert map_to_text(m2) == map_to_text(m)
        pts = np.random.default_rng(0).normal(size=(200, 3))
        assert np.array_equal(M.evaluate_points(m, pts), M.evaluate_points(m2, pts))

    def test_optional_fields_take_constructor_defaults(self):
        m = parse_map("affine(matrix=[[2,0],[0,1]])")
        assert np.array_equal(m.offset, [0.0, 0.0])
        text = map_to_text(M.disk_replication(M.pl_disk_map(pl_twist_example(2, 4, 0.3))))
        assert ",inverted=false" in text
        g = parse_map(text.replace(",inverted=false", "")).disk_map
        assert g.inverted is False

    def test_inverted_pl_disk_parses_with_one_constant_sweep(self, monkeypatch):
        text = map_to_text(M.disk_replication(
            M.pl_disk_map(pl_twist_example(2, 4, 0.3)).inverse()))
        calls = []
        exact = bilip.pl.pl_bilip_constant
        monkeypatch.setattr(bilip.pl, "pl_bilip_constant",
                            lambda plmap: calls.append(plmap) or exact(plmap))
        parse_map(text)
        assert len(calls) == 1

    def test_file_round_trip(self, tmp_path):
        m = M.spiral_map(M.LogSpiralProfile(np.pi, (0, 1), 2))
        path = tmp_path / "m.map"
        save_map(m, path)
        m2 = load_map(path)
        assert map_to_text(m2) == map_to_text(m)

    def test_comments_and_whitespace_in_files(self, tmp_path):
        path = tmp_path / "c.map"
        path.write_text("# a spiral\n  identity(dim=2)\n")
        m = load_map(path)
        assert isinstance(m, M.IdentityMap)


class TestParseErrors:
    @pytest.mark.parametrize(
        "text",
        [
            "",
            "identity(dim=2",
            "identity dim=2)",
            "unknown_node(dim=2)",
            "identity(dim=2) trailing",
            "affine(matrix=[[1,0],[0,1]], offset=[0,)",
            "latitude(beta=0.5)",  # missing axis
            "cubic(knots=[0,1])",  # not a map expression
        ],
    )
    def test_rejected(self, text):
        with pytest.raises(MapFormatError):
            parse_map(text)

    def test_seventeen_digits_round_trip_exactly(self):
        value = 1.0 / 3.0
        m = M.affine([[value, 0.0], [0.0, 1.0]])
        m2 = parse_map(map_to_text(m))
        assert m2.matrix[0, 0] == value


class TestNestingLimit:
    def test_deepest_allowed_text_round_trips(self):
        text = "inverse(map=" * 99 + "identity(dim=2)" + ")" * 99  # 100 deep
        m = parse_map(text)
        assert map_to_text(m) == text
        assert np.array_equal(M.evaluate_points(m, np.eye(2)), np.eye(2))

    @pytest.mark.parametrize("text", [
        "inverse(map=" * 100 + "identity(dim=2)" + ")" * 100,
        "identity(dim=" + "[" * 100 + "]" * 100 + ")",
    ])
    def test_deeper_text_is_refused(self, text):
        with pytest.raises(MapFormatError, match="deep"):
            parse_map(text)
