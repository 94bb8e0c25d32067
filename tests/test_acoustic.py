import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from elaswave.acoustic import (
    _orient_degenerate,
    acoustic_tensor,
    christoffel_modes,
    cluster_sorted,
    eigen_gap_scan,
    fibonacci_sphere,
)
from elaswave.errors import IndefiniteAcousticTensor, InvalidInput, ValidationError
from elaswave.materials import Material, StiffnessTensor, isotropic_stiffness

from oracles import cluster_sorted_mean_loop, isotropic_acoustic_tensor


class TestAcousticTensor:
    def test_isotropic_closed_form(self):
        rng = np.random.default_rng(1)
        c = isotropic_stiffness(2.0, 1.0)
        for _ in range(5):
            xi = rng.standard_normal(3)
            assert np.allclose(acoustic_tensor(c, xi),
                               isotropic_acoustic_tensor(2.0, 1.0, xi))

    def test_degree_two_homogeneity(self):
        c = isotropic_stiffness(1.3, 0.7)
        xi = np.array([0.3, -1.1, 0.4])
        assert np.allclose(acoustic_tensor(c, 2.0 * xi),
                           4.0 * acoustic_tensor(c, xi))

    def test_stack_matches_each_vector(self):
        c = isotropic_stiffness(1.3, 0.7)
        xi = np.random.default_rng(2).standard_normal((4, 3))
        stacked = acoustic_tensor(c, xi)
        assert stacked.shape == (4, 3, 3)
        for one, x in zip(stacked, xi):
            assert np.array_equal(one, acoustic_tensor(c, x))

    @pytest.mark.parametrize("xi, message", [
        ([0.1 + 1j, 0.0, 1.0], "xi must be real numbers, got complex128 of shape (3,)"),
        ([[0.0, 0.0, 1.0], [0.0, 1j, 0.0]], "xi must be real numbers, got complex128"),
        ([True, False, False], "xi must be real numbers, got bool"),
        ([0.0, np.nan, 1.0], "xi must be finite"),
        ([0.0, 1.0], "xi must be a vector of shape (3,) or a stack of them, got shape (2,)"),
    ], ids=["complex", "complex_stack", "bool", "nan", "short"])
    def test_rejects_non_real_xi(self, xi, message):
        with pytest.raises(InvalidInput) as exc:
            acoustic_tensor(isotropic_stiffness(1.3, 0.7), xi)
        assert str(exc.value).startswith(message)


class TestChristoffelModes:
    def test_isotropic_speeds(self, iso):
        m = christoffel_modes(iso, np.array([0.0, 0.0, 1.0]))
        assert m.speeds == pytest.approx([2.0, 1.0, 1.0])
        assert m.degenerate

    def test_polarizations_orthonormal(self, ti):
        m = christoffel_modes(ti, np.array([0.6, 0.0, 0.8]))
        assert np.allclose(m.polarizations @ m.polarizations.T, np.eye(3),
                           atol=1e-12)

    def test_projectors_resolve_identity(self, iso, ti):
        for mat in (iso, ti):
            m = christoffel_modes(mat, np.array([0.6, 0.0, 0.8]))
            assert np.allclose(sum(m.projectors), np.eye(3), atol=1e-12)

    def test_longitudinal_polarization(self, iso):
        d = np.array([1.0, 0.0, 0.0])
        m = christoffel_modes(iso, d)
        assert abs(abs(m.polarizations[0] @ d) - 1.0) < 1e-12

    def test_degenerate_basis_reproducible(self, iso):
        d = np.array([0.0, 1.0, 0.0])
        m1 = christoffel_modes(iso, d)
        m2 = christoffel_modes(iso, d)
        assert np.array_equal(m1.polarizations, m2.polarizations)

    @given(hnp.arrays(np.float64, (3, 3), elements=st.floats(-1.0, 1.0)),
           st.sampled_from([2, 3]))
    @example(np.eye(3), 2)                                  # e3 outside the plane
    @example(np.eye(3)[[2, 1, 0]], 2)                       # e1 outside it
    @example(np.array([[1.0, 1.0, 0.0], [1.0, -1.0, 0.0], [1.0, 0.0, 1.0]]), 2)  # |P e3| = 0.58
    def test_degenerate_basis_spans_the_eigenspace(self, a, k):
        # The Gram-Schmidt of e3, e1, e2 projected onto a k-dimensional
        # eigenspace always fills k orthonormal rows of it.
        assume(abs(np.linalg.det(a)) > 1e-3)
        vecs = np.linalg.qr(a)[0][:, :k].T
        basis = _orient_degenerate(vecs)
        assert basis.shape == (k, 3)
        assert np.allclose(basis @ basis.T, np.eye(k), atol=1e-12)
        assert np.allclose(basis.T @ basis, vecs.T @ vecs, atol=1e-12)

    def test_indefinite_raises(self):
        c = StiffnessTensor(-isotropic_stiffness(2.0, 1.0).entries)
        m = Material(c, 1.0)
        with pytest.raises(IndefiniteAcousticTensor):
            christoffel_modes(m, np.array([0.0, 0.0, 1.0]))

    def test_too_few_directions_rejected(self, iso):
        with pytest.raises(ValidationError):
            eigen_gap_scan(iso, 5)

    def test_nonunit_direction_rejected(self, iso):
        with pytest.raises(ValidationError):
            christoffel_modes(iso, np.array([0.0, 0.0, 2.0]))

    @pytest.mark.parametrize("xi", [
        True, np.array([1.0, 0.0]), np.array([0.0, 0.0, 1 + 0j]), np.array([0.0, 0.0, np.nan]),
        np.array([0.0, 0.0, 1e300])], ids=["bool", "pair", "complex", "nan", "huge"])
    def test_bad_direction_is_invalid_input(self, iso, xi):
        # typed (exit code 2), not a bare ValueError from einsum, a dropped
        # imaginary part or an overflow warning from the norm
        with pytest.raises(InvalidInput, match="^direction must be a finite unit vector"):
            christoffel_modes(iso, xi)


class TestClusterSorted:
    # gaps as fractions of tol: merges, near-ties on both sides, clear splits
    GAPS = np.array([0.0, 0.3, 0.45, 0.5, 0.999999, 1.0, 1.000001, 1.5, 1e3])

    def _chain(self, rng, n, tol):
        start = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-2.0, 2.0)
        return start + np.cumsum(rng.choice(self.GAPS, size=n)) * tol

    def test_matches_mean_loop_reference(self):
        rng = np.random.default_rng(5)
        tol = 1e-8
        sizes = []
        for _ in range(600):
            n = int(rng.integers(1, 10))
            re = self._chain(rng, n, tol)
            im = rng.choice([0.0, 0.5 * tol, 0.999999 * tol, 1.000001 * tol, 2.0],
                            size=n) * rng.choice([-1.0, 1.0], size=n)
            cplx = re + 1j * im
            for vals in (re, cplx[np.lexsort((cplx.imag, cplx.real))]):
                groups = cluster_sorted(vals, tol)
                got = [idx for idx, _ in groups]
                assert got == cluster_sorted_mean_loop(vals, tol)
                for idx, mean in groups:
                    assert np.isclose(mean, np.mean(vals[idx]), rtol=1e-14, atol=0)
                sizes.extend(len(g) for g in got)
        assert sizes.count(3) > 50    # 3-member groups are exercised


class TestSphereScan:
    def test_fibonacci_unit(self):
        pts = fibonacci_sphere(64)
        assert np.allclose(np.linalg.norm(pts, axis=1), 1.0)

    def test_iso_gap_vanishes_on_shear_pair(self, iso):
        # the isotropic shear sheet is exactly degenerate everywhere
        gap, rows = eigen_gap_scan(iso, 50)
        assert gap == pytest.approx(0.0, abs=1e-14)
        assert len(rows) == 50
        # every row still sees the full pressure-shear split
        for _, speeds, _ in rows:
            assert speeds[0] == pytest.approx(2.0) and speeds[1] == pytest.approx(1.0)

    def test_ti_gap_positive_off_axis(self, ti):
        gap, _ = eigen_gap_scan(ti, 200, exclude_axis=np.array([0.0, 0.0, 1.0]),
                                exclude_angle_deg=5.0)
        assert gap > 0.0

    @pytest.mark.parametrize("axis", [[0.0, 0.0, 1j], [False, False, True], [0.0, 1.0]],
                             ids=["complex", "bool", "short"])
    def test_rejects_non_real_exclude_axis(self, ti, axis):
        with pytest.raises(InvalidInput, match=r"exclude_axis must be a vector of shape \(3,\)"):
            eigen_gap_scan(ti, 20, exclude_axis=axis, exclude_angle_deg=5.0)

    def test_exclusion_filters(self, ti):
        _, rows = eigen_gap_scan(ti, 100, exclude_axis=np.array([0.0, 0.0, 1.0]),
                                 exclude_angle_deg=30.0)
        axis = np.array([0.0, 0.0, 1.0])
        for d, _, _ in rows:
            assert abs(d @ axis) < np.cos(np.radians(30.0))
