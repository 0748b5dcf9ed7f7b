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
        assert "inverted" not in text  # written only when true
        g = parse_map(text[:-2] + ",inverted=false))").disk_map
        assert g.inverted is None
        assert map_to_text(M.disk_replication(g)) == text

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
            "affine(matrix=[[1,0],[0,1]],offset=[.5,0])",
            "affine(matrix=[[1,0],[0,1]],offset=[+.5,0])",
            "affine(matrix=[[1,0],[0,1]],offset=[--1,0])",
            "affine(matrix=[[1,0],[0,1]],offset=[0x10,0])",
            "identity(dim=2)#",
            'identity(dim="2")',
            "affine(matrix=[[2,0],[0,1]],ofset=[5,5])",  # misspelled key
            "identity(dim=2,dim=3)",  # repeated key
            "identity(dim=2.0)",  # a float where an int belongs
        ],
    )
    def test_rejected(self, text):
        with pytest.raises(MapFormatError):
            parse_map(text)

    @pytest.mark.parametrize("written, value", [
        ("-0.0", -0.0), ("5e-324", 5e-324),
        ("1.7976931348623157e308", 1.7976931348623157e308),
        ("+5", 5.0), ("2", 2.0), ("2.0", 2.0),
    ])
    def test_numbers_round_trip_bit_exactly(self, written, value):
        m = parse_map(f"affine(matrix=[[1,0],[0,1]],offset=[{written},0])")
        bits = np.array([value]).view(np.int64)
        assert np.array_equal(m.offset[:1].view(np.int64), bits)
        m2 = parse_map(map_to_text(m))
        assert np.array_equal(m2.offset[:1].view(np.int64), bits)

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
