import json

import numpy as np
import pytest

from elaswave.errors import (
    AsymmetricStiffness,
    AsymmetricVoigtMatrix,
    MaterialFileError,
    NonPositiveDensity,
    NonUnitAxis,
    NotARotation,
)
from elaswave.materials import (
    Material,
    StiffnessTensor,
    check_strong_convexity,
    decompose_harmonic,
    from_voigt,
    isotropic_stiffness,
    load_material,
    material_from_dict,
    rotate_stiffness,
    to_mandel,
    to_voigt,
    transversely_isotropic_stiffness,
)


def rotation(axis, angle):
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    k = np.array([[0, -axis[2], axis[1]],
                  [axis[2], 0, -axis[0]],
                  [-axis[1], axis[0], 0]])
    return np.eye(3) + np.sin(angle) * k + (1 - np.cos(angle)) * k @ k


class TestStiffnessConstruction:
    def test_isotropic_entries(self):
        c = isotropic_stiffness(2.0, 1.0)
        assert c[0, 0, 0, 0] == pytest.approx(4.0)   # lam + 2 mu
        assert c[0, 1, 0, 1] == pytest.approx(1.0)   # mu
        assert c[0, 0, 1, 1] == pytest.approx(2.0)   # lam

    def test_symmetries(self):
        c = transversely_isotropic_stiffness(
            1.0, 1.0, 0.2, 0.1, 0.3, np.array([0.0, 0.0, 1.0]))
        e = c.entries
        assert np.allclose(e, e.transpose(1, 0, 2, 3))
        assert np.allclose(e, e.transpose(0, 1, 3, 2))
        assert np.allclose(e, e.transpose(2, 3, 0, 1))

    def test_rejects_asymmetric(self):
        bad = np.zeros((3, 3, 3, 3))
        bad[0, 1, 2, 2] = 1.0
        with pytest.raises(AsymmetricStiffness):
            from elaswave.materials import StiffnessTensor
            StiffnessTensor(bad)

    def test_nonunit_axis(self):
        with pytest.raises(NonUnitAxis):
            transversely_isotropic_stiffness(1, 1, 0.1, 0.1, 0.1,
                                             np.array([0.0, 0.0, 2.0]))

    def test_nonpositive_density(self):
        with pytest.raises(NonPositiveDensity):
            Material(isotropic_stiffness(1, 1), 0.0)

    @pytest.mark.parametrize("density", [np.inf, np.nan, -1.0], ids=["inf", "nan", "negative"])
    def test_density_must_be_finite(self, density):
        with pytest.raises(NonPositiveDensity, match="positive and finite"):
            Material(isotropic_stiffness(1, 1), density)

    def test_rejects_wrong_shape(self):
        with pytest.raises(AsymmetricStiffness, match="shape"):
            StiffnessTensor(np.zeros((3, 3, 3)))


class TestRotation:
    def test_isotropic_invariant(self):
        c = isotropic_stiffness(2.0, 1.0)
        o = rotation([1, 2, 3], 0.7)
        assert np.allclose(rotate_stiffness(c, o).entries, c.entries)

    def test_ti_axis_transforms(self):
        axis = np.array([0.0, 0.0, 1.0])
        o = rotation([0, 1, 0], 0.6)
        c = transversely_isotropic_stiffness(1, 1, 0.2, 0.1, 0.3, axis)
        rotated = rotate_stiffness(c, o)
        direct = transversely_isotropic_stiffness(1, 1, 0.2, 0.1, 0.3, o @ axis)
        assert np.allclose(rotated.entries, direct.entries)

    def test_rejects_non_rotation(self):
        with pytest.raises(NotARotation):
            rotate_stiffness(isotropic_stiffness(1, 1), -np.eye(3))

    def test_convexity_rotation_invariant(self):
        c = transversely_isotropic_stiffness(1, 1, 0.2, 0.1, 0.3,
                                             np.array([0.0, 0.0, 1.0]))
        o = rotation([1, 1, 0], 1.1)
        _, e1 = check_strong_convexity(c)
        _, e2 = check_strong_convexity(rotate_stiffness(c, o))
        assert e1 == pytest.approx(e2, rel=1e-10)


class TestHarmonicDecomposition:
    def test_isotropic_pure_scalar(self):
        h = decompose_harmonic(isotropic_stiffness(2.0, 1.5))
        assert h.lam == pytest.approx(2.0)
        assert h.mu == pytest.approx(1.5)
        assert np.linalg.norm(h.a) < 1e-12
        assert np.linalg.norm(h.b) < 1e-12
        assert np.linalg.norm(h.h) < 1e-12

    def test_roundtrip(self):
        rng = np.random.default_rng(3)
        from elaswave.materials import StiffnessTensor, _symmetrize
        c = StiffnessTensor(_symmetrize(rng.standard_normal((3, 3, 3, 3))))
        h = decompose_harmonic(c)
        assert np.allclose(h.reassemble().entries, c.entries, atol=1e-12)
        assert abs(np.trace(h.a)) < 1e-12
        assert abs(np.trace(h.b)) < 1e-12

    def test_ti_deviators_aligned(self):
        axis = np.array([0.0, 0.0, 1.0])
        c = transversely_isotropic_stiffness(1, 1, 0.3, 0.0, 0.0, axis)
        h = decompose_harmonic(c)
        # alpha-term deviator is proportional to J (x) J - I/3
        dev = np.outer(axis, axis) - np.eye(3) / 3.0
        assert np.allclose(h.a / np.linalg.norm(h.a),
                           dev / np.linalg.norm(dev))


class TestConvexityAndVoigt:
    def test_isotropic_spectrum(self):
        eigs = np.sort(np.linalg.eigvalsh(to_mandel(isotropic_stiffness(2.0, 1.0))))
        # Mandel spectrum: 3 lam + 2 mu once, 2 mu five-fold
        assert eigs[-1] == pytest.approx(8.0)
        assert np.allclose(eigs[:-1], 2.0)

    def test_convexity_boundary(self):
        ok, _ = check_strong_convexity(isotropic_stiffness(2.0, 1.0))
        assert ok
        ok, mineig = check_strong_convexity(isotropic_stiffness(-1.0, 1.0))
        assert not ok and mineig <= 0

    def test_voigt_roundtrip(self):
        c = transversely_isotropic_stiffness(1, 1, 0.2, 0.1, 0.3,
                                             np.array([0.0, 0.0, 1.0]))
        assert np.allclose(from_voigt(to_voigt(c)).entries, c.entries)

    def test_asymmetric_voigt_rejected(self):
        m = np.eye(6)
        m[0, 5] = 1.0
        with pytest.raises(AsymmetricVoigtMatrix):
            from_voigt(m)

    def test_voigt_must_be_6x6(self):
        with pytest.raises(AsymmetricVoigtMatrix, match="6x6"):
            from_voigt(np.eye(5))


class TestMaterialFiles:
    def test_isotropic_dict(self):
        m = material_from_dict({"name": "x", "density": 2.0,
                                "stiffness": {"type": "isotropic",
                                              "lambda": 1.0, "mu": 1.0}})
        assert m.density == 2.0
        assert np.allclose(m.stiffness.entries,
                           isotropic_stiffness(1.0, 1.0).entries)

    def test_voigt_dict_matches_builder(self):
        c = transversely_isotropic_stiffness(1, 1, 0.2, 0.1, 0.3,
                                             np.array([0.0, 0.0, 1.0]))
        doc = {"name": "v", "density": 1.0,
               "stiffness": {"type": "voigt",
                             "matrix": to_voigt(c).tolist()}}
        assert np.allclose(material_from_dict(doc).stiffness.entries, c.entries)

    def test_missing_field(self):
        with pytest.raises(MaterialFileError):
            material_from_dict({"density": 1.0})

    @pytest.mark.parametrize("doc, message", [
        ([{"density": 1.0}], "JSON object"),
        ({"density": 1.0, "stiffness": {"type": "voigt", "convention": "mandel",
                                        "matrix": np.eye(6).tolist()}}, "engineering"),
        ({"density": 1.0, "stiffness": {"type": "cubic"}}, "unknown stiffness type"),
    ], ids=["not_an_object", "voigt_convention", "unknown_type"])
    def test_rejected_documents(self, doc, message):
        with pytest.raises(MaterialFileError, match=message):
            material_from_dict(doc)

    def test_infinite_density_in_file(self):
        # JSON reads 1e999 as inf
        doc = json.loads('{"density": 1e999, '
                         '"stiffness": {"type": "isotropic", "lambda": 2.0, "mu": 1.0}}')
        with pytest.raises(NonPositiveDensity, match="positive and finite"):
            material_from_dict(doc)

    def test_nonconvex_warns(self):
        doc = {"name": "w", "density": 1.0,
               "stiffness": {"type": "isotropic", "lambda": -3.0, "mu": 1.0}}
        with pytest.warns(UserWarning):
            material_from_dict(doc)

    def test_load_material(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"name": "f", "density": 1.5,
                                    "stiffness": {"type": "isotropic",
                                                  "lambda": 2.0, "mu": 1.0}}))
        m = load_material(str(path))
        assert m.name == "f" and m.density == 1.5

    def test_load_bad_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(MaterialFileError):
            load_material(str(path))
