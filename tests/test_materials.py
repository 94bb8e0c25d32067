import json

import numpy as np
import pytest

from elaswave.errors import (
    AsymmetricStiffness,
    AsymmetricVoigtMatrix,
    InvalidInput,
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
    make_isotropic,
    make_transversely_isotropic,
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


def overflowing_rotation():
    # entries of 8e307 are finite, but the 45-degree rotation of this tensor
    # sums sixteen terms of 2e307 into C'_1111
    with np.errstate(over="ignore"):
        c = from_voigt(np.full((6, 6), 8e307))
        rotate_stiffness(c, rotation([0.0, 0.0, 1.0], np.pi / 4))


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

    @pytest.mark.parametrize("entries, dtype", [
        (isotropic_stiffness(2.0, 1.0).entries * (1 + 1e-3j), "complex128"),
        (isotropic_stiffness(2.0, 1.0).entries != 0, "bool"),
        ([[1.0, 2.0], [3.0]], "object"),
    ], ids=["complex", "bool", "ragged"])
    def test_rejects_non_real_entries(self, entries, dtype):
        with pytest.raises(InvalidInput, match=f"stiffness entries must be real numbers, "
                                               f"got {dtype}$"):
            StiffnessTensor(entries)

    @pytest.mark.parametrize("build", [
        lambda: make_isotropic(np.nan, 1.0, 1.0),
        lambda: make_transversely_isotropic(1.0, 1.0, 0.0, 0.0, 0.0, [np.nan, 0.0, 1.0], 1.0),
        lambda: from_voigt(np.where(np.eye(6) == 1, 1.0, np.nan)),
        overflowing_rotation,
        lambda: make_isotropic(np.inf, 1.0, 1.0),
        lambda: make_transversely_isotropic(1.0, 1.0, -np.inf, 0.0, 0.0, [0.0, 0.0, 1.0], 1.0),
    ], ids=["isotropic", "ti_axis", "voigt", "rotation", "isotropic_inf", "ti_alpha_inf"])
    def test_rejects_non_finite_entries(self, build):
        # every builder constructs a StiffnessTensor, which checks its entries;
        # an infinite modulus is rejected before it meets a zero (no warning)
        with pytest.raises(InvalidInput, match="^stiffness entries must be finite$"):
            build()


    @pytest.mark.parametrize("build", [
        lambda: make_isotropic(True, 1.0, 1.0),
        lambda: make_isotropic("1", 1.0, 1.0),
        lambda: make_isotropic(2.0, None, 1.0),
        lambda: make_isotropic(2.0, 1.0 + 0j, 1.0),
        lambda: make_transversely_isotropic(1.0, 1.0, 0.1, False, 0.1, [0.0, 0.0, 1.0], 1.0),
        lambda: make_transversely_isotropic(1.0, 1.0, 0.1, 0.1, "0.1", [0.0, 0.0, 1.0], 1.0),
    ], ids=["bool", "str", "none", "complex", "ti_bool", "ti_str"])
    def test_rejects_non_real_moduli(self, build):
        with pytest.raises(InvalidInput, match="^a modulus must be a real number, got "):
            build()

    @pytest.mark.parametrize("density", [True, None, "1", 1.0 + 0j],
                             ids=["bool", "none", "str", "complex"])
    def test_rejects_non_real_density(self, density):
        with pytest.raises(NonPositiveDensity, match="^density must be a real number, got "):
            make_isotropic(2.0, 1.0, density)

    @pytest.mark.parametrize("build", [
        lambda: make_isotropic(1e308, 1e308, 1.0),     # mu times 2 overflows
        lambda: make_isotropic(1e308, 0.0, 1.0),       # symmetrizing sums two 1e308
        lambda: make_isotropic(-1e308, -1e308, 1.0),
        lambda: make_transversely_isotropic(1.0, 1.0, 1e308, 1e308, -1e308,
                                            [0.0, 0.0, 1.0], 1.0),   # inf - inf
    ], ids=["isotropic", "symmetrize", "negative", "ti"])
    def test_rejects_finite_moduli_whose_tensor_overflows(self, build):
        # typed, with no numpy warning (the test run makes warnings errors)
        with pytest.raises(InvalidInput, match="^stiffness entries must be finite$"):
            build()

    def test_huge_finite_tensor_builds_without_warning(self):
        # entries of 3e300 are finite; their squared norm overflows to inf
        assert make_isotropic(1e300, 1e300, 1.0).stiffness.norm == np.inf

    def test_numpy_scalars_are_real(self):
        m = make_isotropic(np.float32(2.0), np.int64(1), np.float64(1.0))
        assert np.array_equal(m.stiffness.entries, isotropic_stiffness(2.0, 1.0).entries)


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

    @pytest.mark.parametrize("o", [rotation([1, 2, 3], 0.7) * (1 + 0j), np.eye(3) * 1j,
                                   np.eye(3, dtype=bool), np.eye(3)[:2]],
                             ids=["complex_rotation", "complex", "bool", "short"])
    def test_rejects_non_real_rotation(self, o):
        # a complex rotation with zero imaginary part, or the identity as
        # bools, would pass the rotation test once cast to floats
        with pytest.raises(NotARotation, match="O must be a 3x3 matrix of real numbers"):
            rotate_stiffness(isotropic_stiffness(1, 1), o)

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

    def test_to_voigt_entries(self):
        # each Voigt entry is the tensor entry of its two index pairs, copied
        g = np.random.default_rng(4).standard_normal((6, 6))
        c = from_voigt(g + g.T)
        pairs = ((0, 0), (1, 1), (2, 2), (1, 2), (0, 2), (0, 1))
        want = [[c.entries[i, j, k, m] for k, m in pairs] for i, j in pairs]
        assert np.array_equal(to_voigt(c), np.array(want))

    def test_from_voigt_entries(self):
        # every tensor entry is the Voigt entry of its two index pairs, in
        # either order within each pair, as a loop over the pairs fills them
        g = np.random.default_rng(5).standard_normal((6, 6))
        pairs = ((0, 0), (1, 1), (2, 2), (1, 2), (0, 2), (0, 1))
        want = np.zeros((3, 3, 3, 3))
        for a, (i, j) in enumerate(pairs):
            for b, (k, m) in enumerate(pairs):
                want[i, j, k, m] = want[j, i, k, m] = want[i, j, m, k] = want[j, i, m, k] = (
                    (g + g.T)[a, b])
        assert np.array_equal(from_voigt(g + g.T).entries, StiffnessTensor(want).entries)

    def test_asymmetric_voigt_rejected(self):
        m = np.eye(6)
        m[0, 5] = 1.0
        with pytest.raises(AsymmetricVoigtMatrix):
            from_voigt(m)

    def test_voigt_must_be_6x6(self):
        with pytest.raises(AsymmetricVoigtMatrix, match="6x6"):
            from_voigt(np.eye(5))

    @pytest.mark.parametrize("matrix", [
        np.eye(6) * (1 + 1j), np.eye(6) + 0j, np.eye(6, dtype=bool), np.eye(6).astype(object)],
        ids=["complex", "complex_real", "bool", "object"])
    def test_voigt_must_be_real(self, matrix):
        # a complex matrix is not cut to its real part (numpy's ComplexWarning)
        with pytest.raises(AsymmetricVoigtMatrix, match="^Voigt matrix must be 6x6 real numbers"):
            from_voigt(matrix)

    def test_huge_voigt_builds_without_warning(self):
        # entries of 1e300 are finite; the norms overflow to inf without a warning
        assert from_voigt(np.eye(6) * 1e300).norm == np.inf


class TestAxis:
    @pytest.mark.parametrize("axis", [
        np.array([0.0, 0.0, 1 + 1j]), np.array([0.0, 0.0, 1 + 0j]), np.array([False, False, True]),
        np.array([0.0, 0.0, 1.0, 0.0]), 1.0],
        ids=["complex", "complex_real", "bool", "four", "scalar"])
    def test_axis_must_be_a_real_vector(self, axis):
        with pytest.raises(InvalidInput, match=r"^symmetry axis must be a vector of shape \(3,\)"):
            transversely_isotropic_stiffness(1.0, 1.0, 0.1, 0.1, 0.1, axis)

    def test_huge_axis_is_not_unit(self):
        # the unit check does not overflow (no warning) for an entry of 1e300
        with pytest.raises(NonUnitAxis, match=r"\|J\| = 1e\+300$"):
            transversely_isotropic_stiffness(1.0, 1.0, 0.1, 0.1, 0.1, np.array([0.0, 0.0, 1e300]))


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

    # Numbers must be JSON numbers: true would read as 1.0 and "2" as 2.0.
    ISO = {"type": "isotropic", "lambda": 2.0, "mu": 1.0}
    TI = {"type": "transversely_isotropic", "lambda": 1.0, "mu": 1.0, "alpha": 0.05,
          "beta": 0.05, "gamma": 0.02, "axis": [0.0, 0.0, 1.0]}
    VOIGT = {"type": "voigt", "matrix": np.diag([4.0, 4.0, 4.0, 1.0, 1.0, 1.0]).tolist()}

    @pytest.mark.parametrize("field, stiffness, key, value", [
        ("density", ISO, None, True),
        ("density", ISO, None, "1"),
        ("lambda", ISO, "lambda", "2"),
        ("mu", ISO, "mu", True),
        ("ti_moduli", TI, "beta", "0.05"),
        ("ti_moduli", TI, "gamma", False),
        ("axis", TI, "axis", ["0", "0", True]),
        ("axis", TI, "axis", [0.0, 0.0, True]),
        ("voigt", VOIGT, "matrix", [[True] * 6] * 6),
        ("voigt", VOIGT, "matrix", [["4"] + [0.0] * 5] + VOIGT["matrix"][1:]),
    ], ids=["density_true", "density_str", "lambda_str", "mu_true", "ti_modulus_str",
            "ti_modulus_false", "axis_str", "axis_true", "voigt_true", "voigt_str"])
    def test_non_number_fields_rejected(self, field, stiffness, key, value):
        doc = {"density": 1.0, "stiffness": dict(stiffness)}
        if key is None:
            doc["density"] = value
        else:
            doc["stiffness"][key] = value
        with pytest.raises(MaterialFileError, match="expected a JSON number"):
            material_from_dict(json.loads(json.dumps(doc)))

    def test_json_ints_accepted(self):
        # an int reads as the float it equals
        ti = dict(self.TI, **{"lambda": 1, "mu": 1, "axis": [0, 0, 1]})
        for stiffness, as_ints in ((self.ISO, {"type": "isotropic", "lambda": 2, "mu": 1}),
                                   (self.TI, ti),
                                   (self.VOIGT, dict(self.VOIGT, matrix=np.diag(
                                       [4, 4, 4, 1, 1, 1]).astype(int).tolist()))):
            got = material_from_dict({"density": 2, "stiffness": as_ints})
            want = material_from_dict({"density": 2.0, "stiffness": stiffness})
            assert got.density == 2.0
            assert np.array_equal(got.stiffness.entries, want.stiffness.entries)

    def test_nan_modulus_in_file(self):
        doc = {"density": 1.0, "stiffness": {"type": "isotropic", "lambda": np.nan, "mu": 1.0}}
        with pytest.raises(InvalidInput, match="^stiffness entries must be finite$"):
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


class TestMaterialGate:
    """A wrong object where a Material or a BoundaryFrame is due is bad
    input (exit code 2) with a pinned message, on every public entry point
    that takes one, not an AttributeError from deep inside."""

    @staticmethod
    def entry_points(iso):
        from elaswave.acoustic import christoffel_modes, eigen_gap_scan
        from elaswave.boundary import (
            BoundarySide,
            classify,
            iso_impedance_closed_form,
            rayleigh_speed,
            stoneley_speed,
            tau_limit,
        )
        from elaswave.factorization import BoundaryFrame, boundary_polynomial
        from elaswave.layered import LayerStack, trace_plane_wave
        from elaswave.materials import Material
        from elaswave.scatter import incoming_mode, reflect_free_surface, transmit_interface

        nu, eta = np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0])
        frame = BoundaryFrame(nu, eta, -2.5)
        incoming = incoming_mode(iso, frame, 0)
        single = "material must be a Material, got str"
        pair = "materials must be one Material or a pair (m+, m-) of them, got str"
        return {
            "boundary_polynomial": (lambda: boundary_polynomial("x", frame), single),
            "boundary_polynomial frame": (lambda: boundary_polynomial(iso, "f"),
                                          "frame must be a BoundaryFrame, got str"),
            "BoundarySide": (lambda: BoundarySide("x", frame), single),
            "tau_limit": (lambda: tau_limit("x", nu, eta), single),
            "rayleigh_speed": (lambda: rayleigh_speed("x", nu, eta), single),
            "stoneley_speed +": (lambda: stoneley_speed("x", iso, nu, eta), single),
            "stoneley_speed -": (lambda: stoneley_speed(iso, "x", nu, eta), single),
            "incoming_mode": (lambda: incoming_mode("x", frame, 0), single),
            "reflect_free_surface": (lambda: reflect_free_surface("x", frame, incoming), single),
            "transmit_interface": (lambda: transmit_interface(iso, "x", frame, incoming), pair),
            "classify interface frame": (lambda: classify((iso, iso), "f"),
                                         "frame must be a BoundaryFrame, got str"),
            "LayerStack layer": (lambda: LayerStack((("x", 1.0),), iso), single),
            "LayerStack halfspace": (lambda: LayerStack(((iso, 1.0),), "x"), single),
            "christoffel_modes": (lambda: christoffel_modes("x", eta), single),
            "eigen_gap_scan": (lambda: eigen_gap_scan("x", 6), single),
            "iso_impedance_closed_form": (lambda: iso_impedance_closed_form("x", frame), single),
            "iso_impedance_closed_form frame": (lambda: iso_impedance_closed_form(iso, "f"),
                                                "frame must be a BoundaryFrame, got str"),
            "Material stiffness": (lambda: Material("x", 1.0),
                                   "stiffness must be a StiffnessTensor, got str"),
            "trace_plane_wave stack": (lambda: trace_plane_wave("x", (0.1, 0.0), -1.0),
                                       "stack must be a LayerStack, got str"),
        }

    @pytest.mark.parametrize("name", [
        "boundary_polynomial", "boundary_polynomial frame", "BoundarySide", "tau_limit",
        "rayleigh_speed", "stoneley_speed +", "stoneley_speed -", "incoming_mode",
        "reflect_free_surface", "transmit_interface", "classify interface frame",
        "LayerStack layer", "LayerStack halfspace", "christoffel_modes", "eigen_gap_scan",
        "iso_impedance_closed_form", "iso_impedance_closed_form frame", "Material stiffness",
        "trace_plane_wave stack"])
    def test_typed_error(self, name):
        run, message = self.entry_points(make_isotropic(2.0, 1.0, 1.0, "iso"))[name]
        with pytest.raises(InvalidInput) as info:
            run()
        assert str(info.value) == message
        assert info.value.exit_code == 2

    def test_stacks_fail_in_material_order(self):
        # a stack's later material with a wrong type raises only once the
        # materials before it have settled, as building them in turn would
        from elaswave.errors import DegenerateA0
        from elaswave.factorization import BoundaryFrame, _polynomial_stacks

        frames = [BoundaryFrame(np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]), -1.0)]
        nonconvex = make_isotropic(1.0, -1.0, 1.0)
        with pytest.raises(DegenerateA0):
            _polynomial_stacks([(nonconvex, frames), ("x", frames)])
        with pytest.raises(InvalidInput, match="^material must be a Material, got str$"):
            _polynomial_stacks([(make_isotropic(2.0, 1.0, 1.0), frames), ("x", frames)])


class TestPolynomialGate:
    """A wrong object where a polynomial, a spectrum classification, a
    factorization or a kernel vector is due is bad input (exit code 2) with a
    pinned message, not an AttributeError, TypeError or NaN from inside."""

    @staticmethod
    def entry_points():
        from elaswave.factorization import (
            BoundaryFrame,
            QuadraticMatrixPolynomial,
            boundary_polynomial,
            classify_spectrum,
            factorize,
            kernel_basis,
        )
        from elaswave.impedance import impedance_from_factorization, mode_projectors
        from elaswave.layered import group_delay, mode_delay

        frame = BoundaryFrame(np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]), -2.5)
        a = boundary_polynomial(make_isotropic(2.0, 1.0, 1.0, "iso"), frame)
        cls, f = classify_spectrum(a), factorize(a)
        s = cls.real_groups[0].value.real
        v = kernel_basis(a, s)[:, 0]
        poly = "a must be a QuadraticMatrixPolynomial, got str"
        fact = "f must be a SpectralFactorization, got str"
        framed = "a group delay needs a polynomial with a frame and a density"
        bare = QuadraticMatrixPolynomial(np.eye(3), np.zeros((3, 3)), -np.eye(3))
        # A(s) = s^2 - 1, 2 s^2 - 2, s^2 - 4: a simple real root at s = 2, whose
        # delay mode_delay would take from its sign form
        simple = QuadraticMatrixPolynomial(np.diag([1.0, 2.0, 1.0]), np.zeros((3, 3)),
                                           np.diag([-1.0, -2.0, -4.0]))
        return {
            "factorize": (lambda: factorize("x"), poly),
            "classify_spectrum": (lambda: classify_spectrum("x"), poly),
            "kernel_basis": (lambda: kernel_basis("x", 0.5), poly),
            "impedance_from_factorization": (lambda: impedance_from_factorization("x", f), poly),
            "impedance_from_factorization f": (lambda: impedance_from_factorization(a, "x"),
                                               fact),
            "mode_projectors": (lambda: mode_projectors("x"), fact),
            "mode_delay": (lambda: mode_delay(a, "x", s),
                           "classification must be a SpectrumClassification, got str"),
            "group_delay str": (lambda: group_delay(a, s, "x"),
                                "v must be a vector of 3 numbers, got <U1 of shape ()"),
            "group_delay 2-vector": (lambda: group_delay(a, s, v[:2]),
                                     "v must be a vector of 3 numbers, got complex128 of "
                                     "shape (2,)"),
            "group_delay NaN": (lambda: group_delay(a, s, np.array([np.nan, 0.0, 0.0])),
                                "v must be finite"),
            "group_delay no frame": (lambda: group_delay(bare, 1.0, kernel_basis(bare, 1.0)[:, 0]),
                                     framed),
            "mode_delay no frame": (lambda: mode_delay(simple, classify_spectrum(simple), 2.0),
                                    framed),
        }

    @pytest.mark.parametrize("name", [
        "factorize", "classify_spectrum", "kernel_basis", "impedance_from_factorization",
        "impedance_from_factorization f", "mode_projectors", "mode_delay", "group_delay str",
        "group_delay 2-vector", "group_delay NaN", "group_delay no frame",
        "mode_delay no frame"])
    def test_typed_error(self, name):
        run, message = self.entry_points()[name]
        with pytest.raises(InvalidInput) as info:
            run()
        assert str(info.value) == message
        assert info.value.exit_code == 2


class TestEntryPointGate:
    """A wrong object, count, matrix or vector given to the remaining public
    entry points (tensors, samples, polynomials, oracles, trees and fluxes)
    is bad input (exit code 2) with a pinned message, not an AttributeError,
    TypeError, ValueError or UFuncTypeError from inside, nor a result."""

    @staticmethod
    def entry_points():
        from elaswave.acoustic import acoustic_tensor, fibonacci_sphere
        from elaswave.boundary import classify_frames, ellipticity_margin
        from elaswave.factorization import (
            BoundaryFrame,
            QuadraticMatrixPolynomial,
            boundary_polynomial,
            contour_root_check,
            factorization_residual,
            factorize,
            stroh,
        )
        from elaswave.impedance import (
            flux_form,
            impedance_from_factorization,
            impedance_tau_derivative,
        )
        from elaswave.layered import arrivals_rows, leaf_flux

        m = make_isotropic(2.0, 1.0, 1.0, "iso")
        a = boundary_polynomial(m, BoundaryFrame(np.array([0.0, 0.0, 1.0]),
                                                 np.array([1.0, 0.0, 0.0]), -1.5))
        f = factorize(a)
        z, u, eye = impedance_from_factorization(a, f), np.ones(3), np.eye(3)
        stiffness = "stiffness must be a StiffnessTensor, got str"
        poly = "a must be a QuadraticMatrixPolynomial, got str"
        fact = "f must be a SpectralFactorization, got str"
        tree = "tree must be an EventTree, got str"
        count = "n must be a non-negative integer, got {}"
        return {
            "classify_frames": (lambda: list(classify_frames(m, 5)),
                                "frames must be an iterable of BoundaryFrames, got int"),
            "ellipticity_margin": (lambda: ellipticity_margin(m, 5),
                                   "frames must be an iterable of BoundaryFrames, got int"),
            "fibonacci_sphere str": (lambda: fibonacci_sphere("3"), count.format("'3'")),
            "fibonacci_sphere float": (lambda: fibonacci_sphere(2.5), count.format("2.5")),
            "fibonacci_sphere bool": (lambda: fibonacci_sphere(True), count.format("True")),
            "fibonacci_sphere negative": (lambda: fibonacci_sphere(-1), count.format("-1")),
            "acoustic_tensor": (lambda: acoustic_tensor("x", u), stiffness),
            "decompose_harmonic": (lambda: decompose_harmonic("x"), stiffness),
            "to_voigt": (lambda: to_voigt("x"), stiffness),
            "check_strong_convexity": (lambda: check_strong_convexity("x"), stiffness),
            "stroh": (lambda: stroh("x"), poly),
            "contour_root_check": (lambda: contour_root_check("x", f.q, 0j, 1.0), poly),
            "factorization_residual": (lambda: factorization_residual("x", [0.5]), fact),
            "impedance_tau_derivative": (lambda: impedance_tau_derivative("x", f), poly),
            "impedance_tau_derivative f": (lambda: impedance_tau_derivative(a, "x"), fact),
            "leaf_flux": (lambda: leaf_flux("x"), tree),
            "arrivals_rows": (lambda: arrivals_rows("x"), tree),
            "QuadraticMatrixPolynomial 2x2": (
                lambda: QuadraticMatrixPolynomial(eye, eye, np.eye(2)),
                "A2 must be a 3x3 matrix of numbers, got float64 of shape (2, 2)"),
            "QuadraticMatrixPolynomial str": (
                lambda: QuadraticMatrixPolynomial("a", "b", "c"),
                "A0 must be a 3x3 matrix of numbers, got <U1 of shape ()"),
            "with_a2 2x2": (lambda: a.with_a2(np.eye(2)),
                            "A2 must be a 3x3 matrix of numbers, got float64 of shape (2, 2)"),
            "flux_form z": (lambda: flux_form("x", -1.0, u),
                            "z must be an Impedance or a 3x3 matrix of numbers, "
                            "got <U1 of shape ()"),
            "flux_form u": (lambda: flux_form(z, -1.0, np.ones(2)),
                            "u must be a vector of 3 numbers, got float64 of shape (2,)"),
        }

    @pytest.mark.parametrize("name", [
        "classify_frames", "ellipticity_margin", "fibonacci_sphere str",
        "fibonacci_sphere float", "fibonacci_sphere bool", "fibonacci_sphere negative",
        "acoustic_tensor", "decompose_harmonic", "to_voigt", "check_strong_convexity", "stroh",
        "contour_root_check", "factorization_residual", "impedance_tau_derivative",
        "impedance_tau_derivative f", "leaf_flux", "arrivals_rows",
        "QuadraticMatrixPolynomial 2x2", "QuadraticMatrixPolynomial str", "with_a2 2x2",
        "flux_form z", "flux_form u"])
    def test_typed_error(self, name):
        run, message = self.entry_points()[name]
        with pytest.raises(InvalidInput) as info:
            run()
        assert str(info.value) == message
        assert info.value.exit_code == 2

    def test_gated_values_pass(self):
        # what the gates let through gives what it gave: a numpy count, no
        # directions, and a trace and matrix given as lists
        from elaswave.acoustic import fibonacci_sphere
        from elaswave.factorization import BoundaryFrame, boundary_polynomial, factorize
        from elaswave.impedance import flux_form, impedance_from_factorization

        assert np.array_equal(fibonacci_sphere(np.int64(5)), fibonacci_sphere(5))
        assert fibonacci_sphere(0).shape == (0, 3)
        a = boundary_polynomial(make_isotropic(2.0, 1.0, 1.0, "iso"), BoundaryFrame(
            np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]), -1.5))
        z = impedance_from_factorization(a, factorize(a))
        u = np.array([1.0, 2.0j, -0.5])
        assert flux_form(z.z.tolist(), -1.5, u.tolist()) == flux_form(z, -1.5, u)
