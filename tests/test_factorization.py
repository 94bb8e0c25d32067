import dataclasses

import numpy as np
import pytest
import scipy.linalg

from elaswave.errors import (
    ContourTooClose,
    DefectiveEigenvalue,
    GlancingSpectrum,
    NotAnEigenvalue,
    NumericalDomainError,
    SolvencyResidual,
    ValidationError,
)
from elaswave import factorization
from elaswave.factorization import (
    BoundaryFrame,
    QuadraticMatrixPolynomial,
    _validate_factorization,
    boundary_polynomial,
    classify_spectrum,
    contour_root_check,
    factorization_residual,
    factorize,
    residue,
    stroh,
)

from conftest import NU, random_triclinic, sample_frames

ETA = np.array([1.0, 0.0, 0.0])


def frame(tau, eta=ETA):
    return BoundaryFrame(NU, eta, tau)


def sorted_schur_root(a, sigma):
    """Right root from a Schur form that scipy sorts with a target callable."""
    targets = np.array(sigma)
    t, z, sdim = scipy.linalg.schur(
        stroh(a).matrix, output="complex",
        sort=lambda v: np.min(np.abs(v - targets)) <= 1e-6)
    assert sdim == 3
    x1 = z[:3, :3]
    return x1 @ t[:3, :3] @ np.linalg.inv(x1)


class TestBoundaryFrame:
    def test_rejects_nonunit_conormal(self):
        with pytest.raises(ValidationError):
            BoundaryFrame(np.array([0.0, 0.0, 2.0]), ETA, -1.0)

    def test_rejects_nontangential_eta(self):
        with pytest.raises(ValidationError):
            BoundaryFrame(NU, np.array([1.0, 0.0, 0.5]), -1.0)

    def test_rejects_zero_tau(self):
        with pytest.raises(ValidationError):
            BoundaryFrame(NU, ETA, 0.0)

    def test_flip(self):
        fr = frame(-1.0)
        assert np.allclose(fr.flipped().nu, -NU)


class TestBoundaryPolynomial:
    def test_isotropic_coefficients(self, iso):
        # lam = 2, mu = 1: A0 = diag(mu, mu, lam + 2 mu),
        # A1 = lam nu (x) eta + mu eta (x) nu, A2 = l(eta) - rho tau^2.
        a = boundary_polynomial(iso, frame(-0.5))
        assert np.allclose(a.a0, np.diag([1.0, 1.0, 4.0]))
        expected_a1 = 2.0 * np.outer(NU, ETA) + 1.0 * np.outer(ETA, NU)
        assert np.allclose(a.a1, expected_a1)
        assert np.allclose(a.a2, np.diag([4.0, 1.0, 1.0]) - 0.25 * np.eye(3))

    def test_value_and_derivative(self, iso):
        a = boundary_polynomial(iso, frame(-0.5))
        s = 0.3 + 0.1j
        manual = a.a0 * s * s + (a.a1 + a.a1.conj().T) * s + a.a2
        assert np.allclose(a(s), manual)
        h = 1e-7
        fd = (a(s + h) - a(s - h)) / (2 * h)
        assert np.allclose(a.derivative(s), fd, atol=1e-6)

    def test_selfadjointness(self, ti):
        a = boundary_polynomial(ti, frame(-0.8))
        s = 0.4 - 0.9j
        assert np.allclose(a(s).conj().T, a(np.conj(s)))


class TestPolynomialInvariants:
    def test_scale_and_a1_sym_stored_read_only(self, ti):
        a = boundary_polynomial(ti, frame(-0.8, np.array([0.6, 0.3, 0.0])))
        for poly in (a, a.with_a2(a.a2 + 5.0 * np.eye(3))):
            fresh_scale = max(np.linalg.norm(poly.a0), np.linalg.norm(poly.a1),
                              np.linalg.norm(poly.a2), 1e-300)
            assert poly.scale == fresh_scale
            assert np.array_equal(poly.a1_sym, poly.a1 + poly.a1.conj().T)
            assert poly.a1_sym is poly.a1_sym
            with pytest.raises(AttributeError):
                poly.scale = 1.0
            with pytest.raises(AttributeError):
                poly.a1_sym = np.zeros((3, 3))
            with pytest.raises(ValueError):
                poly.a1_sym[0, 0] = 1.0
        assert a.with_a2(a.a2 + 5.0 * np.eye(3)).scale > a.scale


class TestStroh:
    def test_resolvent_identity(self, iso):
        # A(s)^{-1} equals the displacement block of (s - S)^{-1}.
        a = boundary_polynomial(iso, frame(-1.3))
        s6 = stroh(a).matrix
        for s in (0.3 + 0.4j, -1.2 + 0.1j):
            resolvent = np.linalg.inv(s * np.eye(6) - s6)
            assert np.allclose(resolvent[:3, 3:], np.linalg.inv(a(s)),
                               atol=1e-10)

    def test_ks_hermitian(self, ti):
        a = boundary_polynomial(ti, frame(-0.7))
        sm = stroh(a)
        ks = sm.block_swap @ sm.matrix
        assert np.allclose(ks, ks.conj().T, atol=1e-12)

    def test_spectrum_symmetric_about_real_axis(self, iso):
        a = boundary_polynomial(iso, frame(-0.5))
        vals = np.linalg.eigvals(stroh(a).matrix)
        assert np.allclose(np.sort(vals.imag), -np.sort(-vals.imag)[::-1] * -1
                           if False else np.sort(vals.imag), atol=1e-9)
        # conjugate closure
        for v in vals:
            assert np.min(np.abs(vals - np.conj(v))) < 1e-9


class TestClassifySpectrum:
    def test_region_dimensions(self, iso):
        for tau, dim in ((-0.5, 3), (-1.5, 1), (-2.5, 0)):
            cls = classify_spectrum(boundary_polynomial(iso, frame(tau)))
            assert cls.dim_evanescent == dim
            assert not cls.glancing

    def test_sign_types_flip_with_tau(self, iso):
        for tau in (-2.5, 2.5):
            cls = classify_spectrum(boundary_polynomial(iso, frame(tau)))
            want = "positive" if tau < 0 else "negative"
            outgoing = [g for g in cls.real_groups
                        if g.sign_type == want]
            assert sum(g.alg_mult for g in outgoing) == 3

    def test_glancing_at_transition(self, iso):
        cls = classify_spectrum(boundary_polynomial(iso, frame(-1.0)))
        assert cls.glancing


    def test_kernels_only_at_real_eigenvalues(self, iso, monkeypatch):
        # the outgoing/incoming split needs ker A(s) at real s only
        calls = []
        kernel_basis = factorization.kernel_basis

        def counted(a, s, *args, **kwargs):
            calls.append(s)
            return kernel_basis(a, s, *args, **kwargs)

        monkeypatch.setattr(factorization, "kernel_basis", counted)
        rng = np.random.default_rng(11)
        for mat in (iso, random_triclinic(rng)):
            for region, frames in sample_frames(mat, rng, 2).items():
                for fr in frames:
                    calls.clear()
                    cls = classify_spectrum(boundary_polynomial(mat, fr))
                    assert len(calls) == len(cls.real_groups), region
                    if region == "elliptic":
                        assert calls == []
                    else:
                        assert calls
                    for g in cls.groups:
                        if g.is_real:
                            assert g.kernel.shape == (3, g.geo_mult)
                        else:
                            assert g.kernel is None and g.geo_mult is None
                            assert g.sign_type is None and not g.glancing


class TestFactorize:
    def test_residual_small_everywhere(self, iso, ti):
        rng = np.random.default_rng(7)
        for mat in (iso, ti):
            buckets = sample_frames(mat, rng, 3)
            for frames in buckets.values():
                for fr in frames:
                    a = boundary_polynomial(mat, fr)
                    f = factorize(a, "outgoing")
                    samples = rng.standard_normal(5) + 1j * rng.standard_normal(5)
                    assert f.solvency_residual < 1e-10
                    assert factorization_residual(f, samples) < 1e-9

    def test_outgoing_incoming_partition(self, iso):
        # both directions keep the decaying (upper half-plane) evanescent
        # values; only the real propagating modes split by energy direction
        a = boundary_polynomial(iso, frame(-1.5))
        out = np.linalg.eigvals(factorize(a, "outgoing").q)
        inc = np.linalg.eigvals(factorize(a, "incoming").q)
        stroh_vals = np.linalg.eigvals(stroh(a).matrix)

        def split(vals):
            real = np.sort(vals[np.abs(vals.imag) < 1e-8].real)
            ev = np.sort_complex(vals[vals.imag >= 1e-8])
            return real, ev

        out_r, out_e = split(out)
        inc_r, inc_e = split(inc)
        stroh_r, stroh_e = split(stroh_vals)
        assert np.allclose(out_e, inc_e, atol=1e-8)
        assert np.allclose(out_e, stroh_e, atol=1e-8)
        assert np.allclose(np.sort(np.concatenate([out_r, inc_r])),
                           stroh_r, atol=1e-8)
        assert not np.allclose(np.sort(out_r), np.sort(inc_r))

    def test_q_sharp_pairing(self, iso, ti):
        # The left root of one direction carries the other direction's
        # spectrum, and adjoining the factorization swaps the roles:
        # Q#_out = Q_in* (self-adjointness of A plus uniqueness).
        for mat, tau in ((iso, -1.4), (iso, -2.6), (ti, -0.6)):
            a = boundary_polynomial(mat, frame(tau))
            out = factorize(a, "outgoing")
            inc = factorize(a, "incoming")
            left = np.linalg.eigvals(out.q_sharp)
            right = np.conj(np.linalg.eigvals(inc.q))
            for val in left:
                assert np.min(np.abs(right - val)) < 1e-8
            assert np.allclose(out.q_sharp, inc.q.conj().T, atol=1e-8)

    def test_glancing_raises(self, iso):
        with pytest.raises(GlancingSpectrum):
            factorize(boundary_polynomial(iso, frame(-1.0)), "outgoing")

    def test_shared_classification_matches_fresh(self):
        # One classification serves both directions; reordering its Schur
        # form gives the same roots as solving afresh and as a sorted Schur
        # decomposition of the Stroh matrix.
        rng = np.random.default_rng(11)
        for _ in range(3):
            mat = random_triclinic(rng)
            for frames in sample_frames(mat, rng, 2).values():
                for fr in frames:
                    a = boundary_polynomial(mat, fr)
                    cls = classify_spectrum(a)
                    for d in ("outgoing", "incoming"):
                        shared = factorize(a, d, classification=cls)
                        fresh = factorize(a, d)
                        for x, y in ((shared.q, fresh.q),
                                     (shared.q_sharp, fresh.q_sharp)):
                            assert np.linalg.norm(x - y) <= 1e-12 * np.linalg.norm(y)
                        ref = sorted_schur_root(a, shared.sigma)
                        assert (np.linalg.norm(shared.q - ref)
                                <= 1e-8 * np.linalg.norm(ref))

    def test_solvency_failure_is_typed(self, iso):
        f = factorize(boundary_polynomial(iso, frame(-1.5)), "outgoing")
        _validate_factorization(f)
        bad = dataclasses.replace(f, q=f.q + 1e-6)
        with pytest.raises(SolvencyResidual):
            _validate_factorization(bad)
        assert issubclass(SolvencyResidual, NumericalDomainError)

    def test_spec_gap(self, iso):
        a = boundary_polynomial(iso, frame(-1.7))
        f = factorize(a, "outgoing")
        eq = np.linalg.eigvals(f.q)
        es = np.linalg.eigvals(f.q_sharp)
        assert np.min(np.abs(eq[:, None] - es[None, :])) > 1e-6


class TestContourAndResidue:
    def test_contour_residual(self, iso):
        a = boundary_polynomial(iso, frame(-0.6))
        f = factorize(a, "outgoing")
        vals = np.linalg.eigvals(f.q)
        center = complex(np.mean(vals))
        radius = float(np.max(np.abs(vals - center))) + 0.2
        res, info = contour_root_check(a, f.q, center, radius)
        assert res < 1e-10
        assert info["enclosed_rank"] == 3

    def test_contour_too_close(self, iso):
        a = boundary_polynomial(iso, frame(-0.6))
        f = factorize(a, "outgoing")
        q0 = np.linalg.eigvals(f.q)[0]
        with pytest.raises(ContourTooClose):
            contour_root_check(a, f.q, q0 + 1e-4, 1e-4)

    def test_residue_structure(self, iso):
        a = boundary_polynomial(iso, frame(-1.5))
        cls = classify_spectrum(a)
        s = [g.value.real for g in cls.real_groups if g.sign_type == "positive"][0]
        r = residue(a, s)
        # Hermitian, and A(s) r = 0 (supported on the kernel)
        assert np.allclose(r, r.conj().T, atol=1e-10)
        assert np.linalg.norm(a(s) @ r) < 1e-8 * np.linalg.norm(r) * a.scale

    def test_residue_rejects_non_eigenvalue(self, iso):
        a = boundary_polynomial(iso, frame(-1.5))
        with pytest.raises(NotAnEigenvalue):
            residue(a, 17.0)


class TestQuadraticMatrixPolynomialValidation:
    def test_rejects_non_hermitian_a0(self):
        with pytest.raises(ValidationError):
            QuadraticMatrixPolynomial(np.array([[1.0, 1.0, 0], [0, 1, 0], [0, 0, 1]]),
                                      np.zeros((3, 3)), np.eye(3))

    def test_rejects_indefinite_a0(self):
        from elaswave.errors import DegenerateA0
        with pytest.raises(DegenerateA0):
            QuadraticMatrixPolynomial(-np.eye(3), np.zeros((3, 3)), np.eye(3))

    def test_boundary_polynomial_of_nonconvex_material(self):
        # A0 = nu.C.nu is indefinite; the polynomial's constructor rejects it
        from elaswave.errors import DegenerateA0
        from elaswave.materials import make_isotropic
        with pytest.raises(DegenerateA0):
            boundary_polynomial(make_isotropic(1.0, -1.0, 1.0), frame(-1.0))
