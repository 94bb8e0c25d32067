import dataclasses
import re

import numpy as np
import pytest
import scipy.linalg

from elaswave.boundary import BoundarySide, tau_limit
from elaswave.errors import (
    CoefficientOverflow,
    ContourTooClose,
    ElasticError,
    GlancingSpectrum,
    IllConditionedJ,
    InvalidInput,
    NumericalDomainError,
    SigmaCardinality,
    SolvencyResidual,
    ValidationError,
)
from elaswave import _lapack, boundary, factorization, impedance
from elaswave.factorization import (
    BoundaryFrame,
    QuadraticMatrixPolynomial,
    boundary_polynomial,
    classify_spectrum,
    contour_root_check,
    factorization_residual,
    factorize,
    kernel_basis,
    stroh,
)

from elaswave.materials import make_isotropic

from conftest import NU, random_triclinic, sample_frames
from oracles import (NotAnEigenvalue, classify_spectrum_one, factorize_one,
                     group_numpy_scalars, residue, stroh_one)

ETA = np.array([1.0, 0.0, 0.0])


def frame(tau, eta=ETA):
    return BoundaryFrame(NU, eta, tau)


def sorted_schur_root(a, sigma):
    """Right root from a Schur form that scipy sorts with a target callable."""
    targets = np.array(sigma)
    t, z, sdim = scipy.linalg.schur(
        stroh(a), output="complex",
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

    @pytest.mark.parametrize("nu,eta", [
        ([0.0, 1.0], [1.0, 0.0]),                      # a pair builds no frame
        ([0.0, 0.0, 0.0, 1.0], [1.0, 0.0, 0.0, 0.0]),
        ([[0.0], [0.0], [1.0]], ETA),                  # a column nu
        (NU, [1.0, 0.0]),
        (NU, [[1.0, 0.0, 0.0]]),
    ])
    def test_rejects_wrong_shapes(self, nu, eta):
        with pytest.raises(InvalidInput, match=r"shape \(3,\)"):
            BoundaryFrame(np.array(nu), np.array(eta), -1.0)

    NON_REAL = [np.array([1 + 1j, 0, 0]), np.array([1 + 0j, 0, 0]), np.array([True, False, False]),
                np.array(["1", "0", "0"]), np.array([1.0, 0.0, None], dtype=object),
                [[1.0, 0.0], [0.0]]]
    NON_REAL_IDS = ["complex", "complex_real", "bool", "str", "object", "ragged"]

    @pytest.mark.parametrize("vector", NON_REAL, ids=NON_REAL_IDS)
    def test_rejects_non_real_vectors(self, vector):
        # a complex eta is not cut to its real part (numpy's ComplexWarning),
        # and no other dtype passes as a vector of reals
        for build in (lambda: BoundaryFrame(NU, vector, -0.5),
                      lambda: BoundaryFrame(vector, ETA, -0.5),
                      lambda: frame(-0.5).with_eta(vector)):
            with pytest.raises(InvalidInput, match=r"^nu and eta must be vectors of shape \(3,\)"):
                build()

    def test_keeps_the_callers_arrays(self):
        # a frame and a frame moved in eta keep read-only copies: the
        # caller's arrays stay writable, and writing them moves no frame
        nu, eta, other = NU.copy(), ETA.copy(), np.array([0.0, 2.0, 0.0])
        fr = BoundaryFrame(nu, eta, -0.5)
        moved = fr.with_eta(other)
        nu[2] = eta[0] = other[1] = 3.0
        assert fr.nu.tolist() == NU.tolist() and fr.eta.tolist() == ETA.tolist()
        assert moved.eta.tolist() == [0.0, 2.0, 0.0]
        assert not (fr.nu.flags.writeable or fr.eta.flags.writeable or moved.eta.flags.writeable)

    def test_flip(self):
        fr = frame(-1.0)
        assert np.allclose(fr.flipped().nu, -NU)

    BAD_TAUS = [(1 + 1j, "tau must be a real number"), (True, "tau must be a real number"),
                (np.bool_(True), "tau must be a real number"), ("-1", "tau must be a real number"),
                (np.nan, "frame must be finite"), (-np.inf, "frame must be finite"),
                (0.0, "tau must be nonzero")]
    BAD_TAU_IDS = ["complex", "bool", "numpy_bool", "text", "nan", "inf", "zero"]

    @pytest.mark.parametrize("tau,message", BAD_TAUS, ids=BAD_TAU_IDS)
    def test_rejects_tau(self, iso, tau, message):
        # tau is checked where a frame is built, where one is moved to
        # another tau and where factorize is given one
        a = boundary_polynomial(iso, frame(-0.5))
        for build in (lambda: BoundaryFrame(NU, ETA, tau), lambda: frame(-1.0).with_tau(tau),
                      lambda: a.with_tau(tau), lambda: factorize(a, "outgoing", tau)):
            with pytest.raises(InvalidInput, match=f"^{message}"):
                build()

    @pytest.mark.parametrize("tau", [-2, np.float64(-1.5), np.float32(-0.5), np.int64(3)])
    def test_real_taus_kept(self, tau):
        assert BoundaryFrame(NU, ETA, tau).tau is tau
        assert frame(-1.0).with_tau(tau).tau is tau


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


class TestSharedCore:
    def test_with_tau_equals_fresh_polynomial(self, iso, ti, rotated_ti):
        # A polynomial moved to another tau, and its outgoing z as a
        # surface-wave probe builds it (`boundary._outgoing_z`), equal bit
        # for bit the ones built afresh at that tau, in all regions.
        rng = np.random.default_rng(8)
        for mat in (iso, ti, rotated_ti, random_triclinic(rng)):
            for frames in sample_frames(mat, rng, 2).values():
                for fr in frames:
                    start = BoundaryFrame(fr.nu, fr.eta, -0.37)
                    moved = boundary_polynomial(mat, start).with_tau(fr.tau)
                    fresh = boundary_polynomial(mat, fr)
                    assert np.array_equal(moved.a2, fresh.a2)
                    assert moved.scale == fresh.scale
                    assert np.array_equal(stroh(moved), stroh(fresh))
                    for got, want in zip(classify_spectrum(moved).schur,
                                         classify_spectrum(fresh).schur):
                        assert np.array_equal(got, want)
                    assert np.array_equal(boundary._outgoing_z(moved),
                                          BoundarySide(mat, fr).z())

    def test_core_holds_the_a2_asymmetry(self, ti):
        # ||A2 - A2*|| of every A2 = l(eta) - rho tau^2 I formed from a core
        # is, bit for bit, ||l(eta) - l(eta)*||, which the core holds; an A2
        # given to with_a2 has its own, taken afresh.
        rng = np.random.default_rng(17)
        for mat in (ti, *(random_triclinic(rng) for _ in range(5))):
            for ang in rng.uniform(0.0, 2.0 * np.pi, 4):
                eta = rng.uniform(0.2, 1.5) * np.array([np.cos(ang), np.sin(ang), 0.0])
                a = boundary_polynomial(mat, frame(-1.0, eta))
                for tau in rng.uniform(-3.0, 3.0, 5):
                    a2 = a.with_tau(tau).a2
                    asymmetry = factorization._fro((a2 - a2.conj().T)[None])[0]
                    assert bits(asymmetry) == bits(a.core.l_asymmetry)
        skew = a.with_a2(a.a2 + 1e-13 * a.scale * np.triu(np.ones((3, 3)), 1))
        assert skew.scale >= a.scale
        with pytest.raises(InvalidInput, match="A2 must be Hermitian"):
            a.with_a2(a.a2 + 1e-11 * a.scale * np.triu(np.ones((3, 3)), 1))

    def test_per_tau_checks(self, iso):
        a = boundary_polynomial(iso, frame(-0.5))
        with pytest.raises(CoefficientOverflow):
            a.with_tau(-1e80)
        with pytest.raises(CoefficientOverflow):
            a.with_tau(1e80)
        with pytest.raises(InvalidInput):
            a.with_tau(0.0)
        with pytest.raises(InvalidInput):
            a.with_a2(a.a2 + np.triu(np.ones((3, 3)), 1))
        bare = QuadraticMatrixPolynomial(a.a0, a.a1, a.a2)
        with pytest.raises(InvalidInput):
            bare.with_tau(-1.0)

    def test_frame_with_tau_checks_only_tau(self):
        # A frame moved in tau keeps the checked, read-only nu and eta arrays
        # and rejects a bad tau with the same error a fresh frame raises.
        fr = frame(-0.5, np.array([0.3, -0.4, 0.0]))
        moved = fr.with_tau(-1.25)
        assert moved.nu is fr.nu and moved.eta is fr.eta and moved.tau == -1.25
        for bad in (0.0, np.nan, np.inf, -np.inf):
            with pytest.raises(InvalidInput) as got:
                fr.with_tau(bad)
            with pytest.raises(InvalidInput) as want:
                BoundaryFrame(NU, fr.eta, bad)
            assert str(got.value) == str(want.value)

    def test_frame_with_eta_checks_only_eta(self):
        # the same for a frame moved in eta, which keeps nu and tau
        fr = frame(-0.5, np.array([0.3, -0.4, 0.0]))
        moved = fr.with_eta([2.0, 1.0, 0.0])
        assert moved.nu is fr.nu and moved.tau == fr.tau
        assert moved.eta.tolist() == [2.0, 1.0, 0.0] and not moved.eta.flags.writeable
        for bad in ([np.nan, 0.0, 0.0], [0.0, np.inf, 0.0], [0.3, 0.0, 1e-3], [1.0, 0.0],
                    [[0.3], [-0.4], [0.0]]):
            with pytest.raises(InvalidInput) as got:
                fr.with_eta(bad)
            with pytest.raises(InvalidInput) as want:
                BoundaryFrame(NU, bad, fr.tau)
            assert str(got.value) == str(want.value)


class TestStroh:
    def test_resolvent_identity(self, iso):
        # A(s)^{-1} equals the displacement block of (s - S)^{-1}.
        a = boundary_polynomial(iso, frame(-1.3))
        s6 = stroh(a)
        for s in (0.3 + 0.4j, -1.2 + 0.1j):
            resolvent = np.linalg.inv(s * np.eye(6) - s6)
            assert np.allclose(resolvent[:3, 3:], np.linalg.inv(a(s)),
                               atol=1e-10)

    def test_ks_hermitian(self, ti):
        a = boundary_polynomial(ti, frame(-0.7))
        k = np.block([[np.zeros((3, 3)), np.eye(3)], [np.eye(3), np.zeros((3, 3))]])
        ks = k @ stroh(a)
        assert np.allclose(ks, ks.conj().T, atol=1e-12)

    def test_spectrum_symmetric_about_real_axis(self, iso):
        a = boundary_polynomial(iso, frame(-0.5))
        vals = np.linalg.eigvals(stroh(a))
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
        # the outgoing/incoming split needs ker A(s) at real s only: the
        # stacked kernel SVD gets one A(s) per real group and no other
        calls = []
        kernels = factorization._kernels

        def counted(mats, scales):
            calls.extend(mats)
            return kernels(mats, scales)

        monkeypatch.setattr(factorization, "_kernels", counted)
        rng = np.random.default_rng(11)
        for mat in (iso, random_triclinic(rng)):
            for region, frames in sample_frames(mat, rng, 2).items():
                for fr in frames:
                    calls.clear()
                    a = boundary_polynomial(mat, fr)
                    cls = classify_spectrum(a)
                    assert len(calls) == len(cls.real_groups), region
                    if region == "elliptic":
                        assert calls == []
                    else:
                        assert calls
                    for at, g in zip(calls, cls.real_groups):
                        assert np.array_equal(at, a(g.value))
                    for g in cls.groups:
                        if g.is_real:
                            assert g.kernel.shape == (3, g.geo_mult)
                        else:
                            assert g.kernel is None and g.geo_mult is None
                            assert g.sign_type is None and not g.glancing

    def test_schur_failures_are_numerical(self, iso, monkeypatch):
        # Non-finite Stroh matrices and LAPACK failures are numerical-domain
        # errors, not a bare ValueError or LinAlgError.
        nan_a2 = QuadraticMatrixPolynomial(np.eye(3), np.zeros((3, 3)),
                                           np.full((3, 3), np.nan))
        with pytest.raises(NumericalDomainError):
            classify_spectrum(nan_a2)
        a = boundary_polynomial(iso, frame(-0.5))
        monkeypatch.setattr(_lapack, "zgees", lambda *args, **kwargs: (None,) * 5 + (2,))
        with pytest.raises(NumericalDomainError):
            classify_spectrum(a)

    def test_nan_coefficients_are_numerical(self):
        # A NaN in A0 is rejected before A0's eigenvalues are taken, whose
        # LAPACK call would raise a bare LinAlgError; a NaN in A1, like one
        # in A2, makes the Stroh matrix non-finite.
        nan = np.full((3, 3), np.nan)
        with pytest.raises(NumericalDomainError, match="A0 is not finite"):
            QuadraticMatrixPolynomial(nan, np.zeros((3, 3)), np.eye(3))
        partly = np.eye(3)
        partly[1, 2] = partly[2, 1] = np.nan
        with pytest.raises(NumericalDomainError, match="A0 is not finite"):
            QuadraticMatrixPolynomial(partly, np.zeros((3, 3)), np.eye(3))
        with pytest.raises(NumericalDomainError, match="Stroh matrix is not finite"):
            classify_spectrum(QuadraticMatrixPolynomial(np.eye(3), nan, np.eye(3)))


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
        stroh_vals = np.linalg.eigvals(stroh(a))

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
        a = boundary_polynomial(iso, frame(-1.5))
        f = factorize(a, "outgoing")

        def validate(fact):     # the checks of factorize, on one factorization's own matrices
            return factorization._validate([fact], factorization._coefficients([a]),
                                           fact.q, fact.a0_q, fact.q_sharp)

        assert validate(f) is None
        bad = dataclasses.replace(f, q=f.q + 1e-6, a0_q=a.a0 @ (f.q + 1e-6))
        with pytest.raises(SolvencyResidual):
            validate(bad)
        assert issubclass(SolvencyResidual, NumericalDomainError)

    @pytest.mark.parametrize("entries", [slice(None), slice(-1, None)], ids=["all", "last"])
    def test_non_finite_roots_are_solvency_failures(self, iso, monkeypatch, entries):
        # NaN roots fail the solvency check, with exit code 3, before the
        # eigenvalues of Q are taken: not numpy's bare LinAlgError ("Array
        # must not contain infs or NaNs"), whichever entry of a stack is NaN
        real = factorization._roots

        def nan_roots(x1, *args):
            q, a0_q, q_sharp = real(x1, *args)
            q[entries] = np.nan
            return q, a0_q, q_sharp

        monkeypatch.setattr(factorization, "_roots", nan_roots)
        with pytest.raises(SolvencyResidual, match="nan") as info:
            factorize(boundary_polynomial(iso, frame(-1.5)), "outgoing")
        assert info.value.exit_code == 3
        polys = [boundary_polynomial(iso, frame(tau)) for tau in (-1.5, -2.5)]
        with pytest.raises(SolvencyResidual, match="nan"):
            factorization._factorize(polys, [classify_spectrum(a) for a in polys],
                                     "outgoing", [-1.5, -2.5])

    def test_spec_gap(self, iso):
        a = boundary_polynomial(iso, frame(-1.7))
        f = factorize(a, "outgoing")
        eq = np.linalg.eigvals(f.q)
        es = np.linalg.eigvals(f.q_sharp)
        assert np.min(np.abs(eq[:, None] - es[None, :])) > 1e-6


def bits(x):
    x = np.asarray(x)
    return x.dtype, x.shape, x.tobytes()


def outcome(fn):
    """fn()'s result and None, or None and the (type, message) of its error."""
    try:
        return fn(), None
    except ElasticError as exc:
        return None, (type(exc), str(exc))


def same_classification(got, want):
    assert bits(got.stroh_norm) == bits(want.stroh_norm)
    assert [bits(x) for x in got.schur] == [bits(x) for x in want.schur]
    assert len(got.groups) == len(want.groups)
    for g, h in zip(got.groups, want.groups):
        assert bits(g.value) == bits(h.value)
        assert ((g.alg_mult, g.geo_mult, g.is_real, g.sign_type, g.glancing)
                == (h.alg_mult, h.geo_mult, h.is_real, h.sign_type, h.glancing))
        assert (g.kernel is None) == (h.kernel is None)
        if g.kernel is not None:
            assert bits(g.kernel) == bits(h.kernel)
        assert (g.sign_form is None) == (h.sign_form is None)
        if g.sign_form is not None:
            assert bits(g.sign_form) == bits(h.sign_form)


def same_factorization(got, want):
    for name in ("q", "q_sharp", "q_spectrum", "solvency_residual", "tau", "a0_q"):
        assert bits(getattr(got, name)) == bits(getattr(want, name)), name
    assert [bits(z) for z in got.sigma] == [bits(z) for z in want.sigma]
    assert got.direction == want.direction


class TestStacksOfOne:
    def test_same_bits_as_one_polynomial_bodies(self, iso, ti, rotated_ti):
        # classify_spectrum and factorize run the stacked stages on one
        # polynomial; they must give what the one-polynomial bodies gave, bit
        # for bit, or the same error, in every region and 1e-10 either side
        # of the elliptic limit tau_L.
        rng = np.random.default_rng(29)
        checked = set()
        for mat in (iso, ti, rotated_ti, random_triclinic(rng), random_triclinic(rng)):
            frames = [fr for per_region in sample_frames(mat, rng, 3).values()
                      for fr in per_region]
            for ang in rng.uniform(0.0, 2.0 * np.pi, 2):
                eta_hat = np.array([np.cos(ang), np.sin(ang), 0.0])
                t_l = tau_limit(mat, NU, eta_hat)
                frames += [BoundaryFrame(NU, eta_hat, -t_l * (1.0 + d)) for d in (-1e-10, 1e-10)]
            for fr in frames + [frame(-1.0)]:     # iso glances at tau = -|eta| c_s = -1
                a = boundary_polynomial(mat, fr)
                assert bits(a.scale) == bits(max(np.linalg.norm(a.a0), np.linalg.norm(a.a1),
                                                 np.linalg.norm(a.a2)))
                got, error = outcome(lambda: classify_spectrum(a))
                want, want_error = outcome(lambda: classify_spectrum_one(a))
                assert error == want_error
                if error is not None:
                    checked.add(error[0])
                    continue
                same_classification(got, want)
                for direction in ("outgoing", "incoming"):
                    for fresh in (True, False):
                        kwargs = {} if fresh else {"classification": got}
                        f, error = outcome(lambda: factorize(a, direction, **kwargs))
                        ref, want_error = outcome(lambda: factorize_one(
                            a, direction, **({} if fresh else {"classification": want})))
                        assert error == want_error
                        if error is None:
                            same_factorization(f, ref)
                            checked.add(direction)
                        else:
                            checked.add(error[0])
        # factorizations in both directions and the glancing failure were met
        assert {"outgoing", "incoming", GlancingSpectrum} <= checked

    def test_a0_q_is_the_product(self, iso, ti, rotated_ti):
        # the A0 Q that a factorization forms once, for Q#, the solvency
        # residual and z, is a.a0 @ f.q bit for bit, alone and in a stack of
        # 16; and z is -i(A0 Q + A1) with that product formed anew
        rng = np.random.default_rng(53)
        polys = [boundary_polynomial(mat, fr)
                 for mat in (iso, ti, rotated_ti, random_triclinic(rng))
                 for per_region in sample_frames(
                     mat, rng, 2, regions=("hyperbolic", "elliptic")).values()
                 for fr in per_region]
        assert len(polys) == 16
        classes = [classify_spectrum(a) for a in polys]
        stacked = factorization._factorize(polys, classes, "outgoing",
                                           [a.frame.tau for a in polys])
        for a, cls, f in zip(polys, classes, stacked, strict=True):
            alone = factorize(a, classification=cls)
            for g in (f, alone):
                assert bits(g.a0_q) == bits(a.a0 @ g.q)
            z = impedance.impedance_from_factorization(a, alone).z
            assert bits(z) == bits(-1j * (a.a0 @ alone.q + a.a1))

    def test_stroh_template_is_the_blocks(self, iso, ti, rotated_ti):
        # the core's Stroh template with A2 subtracted is, bit for bit, the
        # Stroh matrix built from its blocks at each tau
        rng = np.random.default_rng(59)
        for mat in (iso, ti, rotated_ti, random_triclinic(rng)):
            for frames in sample_frames(mat, rng, 2).values():
                for fr in frames:
                    a = boundary_polynomial(mat, fr)
                    for moved in (a, a.with_tau(0.7 * fr.tau)):
                        assert bits(stroh(moved)) == bits(stroh_one(moved))

    @pytest.mark.parametrize("entry", ["real", "complex", "inf", "nan"])
    def test_fro_of_one_is_the_stacked_row(self, entry):
        # _fro of a one-entry stack takes np.linalg.norm; the row of the same
        # matrix in a longer stack is the same bits.
        rng = np.random.default_rng([31, len(entry)])
        for _ in range(200):
            x = rng.standard_normal((3, 6, 6)) * 10.0 ** rng.uniform(-100, 100, (3, 1, 1))
            if entry != "real":
                x = x + 1j * rng.standard_normal((3, 6, 6))
            if entry in ("inf", "nan"):
                x[0, rng.integers(6), rng.integers(6)] = np.inf if entry == "inf" else np.nan
            one = factorization._fro(x[:1])
            assert one.shape == (1,)
            assert np.array_equal(one, factorization._fro(x)[:1], equal_nan=True)
            assert np.array_equal(one[0], np.linalg.norm(x[0]), equal_nan=True)


class TestStackedOrder:
    def test_targets_before_root_checks(self, iso, monkeypatch):
        # entry 0 fails its root check and entry 1 its target; a stack takes
        # every target before it checks any roots, so entry 1's error comes
        # first (classify_frames, not the stack, restores loop order)
        taus = [-2.5, -1.5]
        polys = [boundary_polynomial(iso, frame(t)) for t in taus]
        classes = [classify_spectrum(a) for a in polys]
        target, validate = factorization._target, factorization._validate

        def failing_target(cls, direction, tau):
            if cls is classes[1]:
                raise SigmaCardinality("injected target failure of entry 1")
            return target(cls, direction, tau)

        def failing_validate(facts, *stacks):
            validate(facts, *stacks)
            if facts[0].classification is classes[0]:
                raise SolvencyResidual("injected root failure of entry 0")

        monkeypatch.setattr(factorization, "_target", failing_target)
        monkeypatch.setattr(factorization, "_validate", failing_validate)
        with pytest.raises(SolvencyResidual, match="entry 0"):
            factorization._factorize(polys[:1], classes[:1], "outgoing", taus[:1])
        with pytest.raises(SigmaCardinality, match="entry 1"):
            factorization._factorize(polys, classes, "outgoing", taus)

    def test_targets_before_conditions(self, iso, monkeypatch):
        # entry 0 fails its cond(X1) check and entry 1 its target; a stack
        # takes every target and reorder before any cond(X1), so entry 1's
        # error comes first, while entry 0 alone is ill-conditioned
        taus = [-2.5, -1.5]
        polys = [boundary_polynomial(iso, frame(t)) for t in taus]
        classes = [classify_spectrum(a) for a in polys]
        target = factorization._target

        def failing_target(cls, direction, tau):
            if cls is classes[1]:
                raise SigmaCardinality("injected target failure of entry 1")
            return target(cls, direction, tau)

        monkeypatch.setattr(factorization, "_target", failing_target)
        monkeypatch.setattr(factorization, "MAX_J_CONDITION", 0.0)
        with pytest.raises(IllConditionedJ):
            factorization._factorize(polys[:1], classes[:1], "outgoing", taus[:1])
        with pytest.raises(SigmaCardinality, match="entry 1"):
            factorization._factorize(polys, classes, "outgoing", taus)


class TestStackedEntries:
    def test_stack_equals_entries_alone(self):
        # The Stroh norms of a classification stack and the cond(X1) of a
        # factorization stack are each one stacked call; every entry is bit
        # for bit what classify_spectrum and factorize give it alone.
        rng = np.random.default_rng(41)
        polys = []
        for _ in range(4):
            mat = random_triclinic(rng)
            polys += [boundary_polynomial(mat, fr)
                      for frames in sample_frames(mat, rng, 2).values() for fr in frames]
        classes = factorization._classify(polys)
        for a, cls in zip(polys, classes):
            alone = classify_spectrum(a)
            assert bits(cls.stroh_norm) == bits(alone.stroh_norm)
            same_classification(cls, alone)
        for direction in ("outgoing", "incoming"):
            facts = factorization._factorize(polys, classes, direction,
                                             [a.frame.tau for a in polys])
            for a, cls, f in zip(polys, classes, facts):
                same_factorization(f, factorize(a, direction, classification=cls))

    def test_mixed_material_polynomial_stack(self, iso, ti, rotated_ti):
        # _polynomial_stacks builds the polynomials of several materials as
        # one stack; each polynomial's coefficients, core fields and scale
        # are bit for bit those it gets built alone
        rng = np.random.default_rng(43)
        stacks = []
        for mat in (iso, ti, rotated_ti, random_triclinic(rng), make_isotropic(-1.0, 1.0, 1.0)):
            frames = [fr for per_region in sample_frames(
                mat, rng, 2, regions=("hyperbolic", "elliptic")).values() for fr in per_region]
            stacks.append((mat, frames + [fr.flipped() for fr in frames]))
        for (mat, frames), stack in zip(stacks, factorization._polynomial_stacks(stacks),
                                        strict=True):
            for a, fr in zip(stack, frames, strict=True):
                alone = boundary_polynomial(mat, fr)
                assert a.frame is fr and (a.rho, a.scale) == (alone.rho, alone.scale)
                for name in ("a0", "a1", "a2", "a1_sym"):
                    assert bits(getattr(a, name)) == bits(getattr(alone, name)), name
                core, theirs = vars(a.core), vars(alone.core)
                assert list(core) == list(theirs)
                for name, value in core.items():
                    assert bits(value) == bits(theirs[name]), name

    def test_mode_projectors_of_mixed_cluster_counts(self, iso):
        # one stack of factorizations whose Q has 1 (isotropic, lambda = -mu:
        # Q = s I), 2 (isotropic: a double shear root) or 3 eigenvalue
        # clusters; each entry's projectors are bit for bit its own alone
        rng = np.random.default_rng(47)
        facts = []
        for mat in (iso, make_isotropic(-1.0, 1.0, 1.0), random_triclinic(rng)):
            for frames in sample_frames(mat, rng, 2, regions=("hyperbolic", "elliptic")).values():
                facts += [factorize(boundary_polynomial(mat, fr)) for fr in frames]
        facts = [facts[k] for k in rng.permutation(len(facts))]
        counts = [len(np.unique(np.round(f.q_spectrum, 6))) for f in facts]
        assert set(counts) == {1, 2, 3}
        stacked = impedance._mode_projectors(facts)
        for f, got in zip(facts, stacked, strict=True):
            alone = impedance.mode_projectors(f)
            assert list(got.psi) == list(alone.psi)
            assert [bits(p) for p in got.psi.values()] == [bits(p) for p in alone.psi.values()]
            assert bits(got.pi_c) == bits(alone.pi_c)
            assert (got.dim_ec, got.dim_er) == (alone.dim_ec, alone.dim_er)

    def test_one_dimensional_sign_forms_skip_eigvalsh(self):
        # the sign type of a 1 x 1 sign form is read off its real part, which
        # is the eigenvalue eigvalsh gives its Hermitian part, bit for bit:
        # sign types and forms are those of the eigvalsh route (the
        # one-polynomial oracle), in every region and 1e-10 either side of
        # tau_L (the elliptic side has no real group, so no form to check)
        rng = np.random.default_rng(53)
        met = set()
        for _ in range(3):
            mat = random_triclinic(rng)
            frames = [(region, fr) for region, per_region in sample_frames(mat, rng, 3).items()
                      for fr in per_region]
            for ang in rng.uniform(0.0, 2.0 * np.pi, 2):
                eta_hat = np.array([np.cos(ang), np.sin(ang), 0.0])
                t_l = tau_limit(mat, NU, eta_hat)
                frames += [(d, BoundaryFrame(NU, eta_hat, -t_l * (1.0 + d)))
                           for d in (-1e-10, 1e-10)]
            for where, fr in frames:
                a = boundary_polynomial(mat, fr)
                got, want = classify_spectrum(a), classify_spectrum_one(a)
                for g, h in zip(got.groups, want.groups, strict=True):
                    if g.geo_mult != 1:
                        continue
                    herm = 0.5 * (g.sign_form + g.sign_form.conj().T)
                    for eigs in (_lapack.eigvalsh(herm[None])[0], np.linalg.eigvalsh(herm)):
                        assert bits(eigs[0]) == bits(g.sign_form[0, 0].real)
                    assert g.sign_type == h.sign_type and g.glancing == h.glancing
                    assert bits(g.sign_form) == bits(h.sign_form)
                    met.add(where)
        assert met == {"hyperbolic", "mixed", 1e-10}


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

    def test_rejects_singular_non_hermitian_a0(self):
        # the lower triangle is positive definite, but A0 has no inverse for
        # the Stroh blocks: the Hermitian check still rejects it
        with pytest.raises(InvalidInput):
            QuadraticMatrixPolynomial(np.array([[1.0, 2.0, 0], [0.5, 1, 0], [0, 0, 1]]),
                                      np.zeros((3, 3)), np.eye(3))

    def test_rejects_indefinite_a0(self):
        from elaswave.errors import DegenerateA0
        with pytest.raises(DegenerateA0):
            QuadraticMatrixPolynomial(-np.eye(3), np.zeros((3, 3)), np.eye(3))

    def test_rejects_overflowing_coefficients(self):
        # a coefficient past 1e150 would overflow in the polynomial's own norms
        unit = QuadraticMatrixPolynomial(np.eye(3), np.zeros((3, 3)), np.eye(3))
        for which in range(3):
            coefficients = [unit.a0, unit.a1, unit.a2]
            coefficients[which] = 1e200 * np.eye(3)
            with pytest.raises(CoefficientOverflow):
                QuadraticMatrixPolynomial(*coefficients)
        with pytest.raises(CoefficientOverflow):     # with_a2 checks the new A2 alike
            unit.with_a2(-1e200 * np.eye(3))

    @pytest.mark.parametrize("s, message", [
        (np.nan, "A(s) is not finite at s = nan"), (np.inf, "A(s) is not finite at s = inf"),
        (complex(0.0, np.nan), "A(s) is not finite at s = nanj"),
        (1e300, "A(s) is not finite at s = 1e+300"),
        ("x", "s must be a number, got 'x'"), (None, "s must be a number, got None"),
        (True, "s must be a number, got True"),
    ], ids=["nan", "inf", "nan_imag", "overflow", "str", "none", "bool"])
    def test_kernel_basis_rejects_bad_s(self, iso, s, message):
        # typed, with no numpy warning or bare LinAlgError
        a = boundary_polynomial(iso, frame(-1.5))
        with pytest.raises(InvalidInput, match=f"^{re.escape(message)}$"):
            kernel_basis(a, s)

    def test_boundary_polynomial_of_nonconvex_material(self):
        # A0 = nu.C.nu is indefinite; the polynomial's constructor rejects it
        from elaswave.errors import DegenerateA0
        from elaswave.materials import make_isotropic
        with pytest.raises(DegenerateA0):
            boundary_polynomial(make_isotropic(1.0, -1.0, 1.0), frame(-1.0))


def test_records_are_the_dataclass_instances():
    # each row becomes its instance's __dict__, as `_record` does one at a time
    rows = [dict(value=complex(k), alg_mult=1, geo_mult=None, is_real=False, sign_type=None,
                 glancing=False, kernel=None) for k in range(3)]
    built = factorization._records(factorization.EigenvalueGroup, rows)
    assert isinstance(built, tuple) and len(built) == 3
    for obj, row in zip(built, rows):
        assert type(obj) is factorization.EigenvalueGroup
        assert obj.__dict__ is row
        assert obj == factorization.EigenvalueGroup(**row)
        with pytest.raises(dataclasses.FrozenInstanceError):
            obj.value = 1.0
    assert factorization._records(factorization.EigenvalueGroup, []) == ()


def test_group_sorts_as_lexsort():
    # `_group` sorts with numpy's complex sort; on ties (equal points, some
    # with zero parts of either sign) it must group as a stable lexsort by
    # real, then imaginary part did, bit for bit
    from elaswave.acoustic import cluster_sorted

    def lexsort_groups(vals, norm):
        vals = vals[np.lexsort((vals.imag, vals.real))]
        tol_real = factorization.GROUPING_TOL * (1.0 + norm)
        return [(complex(mean.real) if abs(mean.imag) <= tol_real else complex(mean), len(idx),
                 abs(mean.imag) <= tol_real)
                for idx, mean in cluster_sorted(vals, max(tol_real, 1e3 * np.finfo(float).eps
                                                            * norm))]

    rng = np.random.default_rng(59)
    parts = [0.0, -0.0, 1.0, -1.0, 1e-9, 2.5]
    for _ in range(2000):
        vals = np.array([complex(rng.choice(parts), rng.choice(parts)) for _ in range(6)])
        norm = float(rng.choice([0.0, 1.0, 1e3]))
        got, want = factorization._group(vals, norm), lexsort_groups(vals, norm)
        assert [bits(v) + (alg, real) for v, alg, real in got] == \
            [bits(v) + (alg, real) for v, alg, real in want]


def same_groups(got, want):
    assert [bits(v) + (alg, real) for v, alg, real in got] == \
        [bits(v) + (alg, real) for v, alg, real in want]


def test_group_is_the_numpy_scalar_rule(iso, ti, rotated_ti):
    # `_group` clusters Python complex numbers; on the Schur diagonals of
    # seeded spectra in every region, on the triple points of an isotropic
    # solid with lambda = -mu (whose means, divided by 3, round otherwise
    # as Python complex numbers at tau = -0.5 and -1.5), and on points drawn
    # within a few tolerances of each other (groups of 1 to 6 points), its
    # groups are bit for bit those of the numpy-scalar rule
    rng = np.random.default_rng(61)
    frames = [(mat, [fr for per_region in sample_frames(mat, rng, 30).values()
                     for fr in per_region])
              for mat in (iso, ti, rotated_ti, random_triclinic(rng), random_triclinic(rng))]
    frames.append((make_isotropic(-1.0, 1.0, 1.0), [frame(tau) for tau in (-0.5, -1.5, -2.5)]))
    diagonals = []
    for mat, mat_frames in frames:
        for fr in mat_frames:
            cls = classify_spectrum(boundary_polynomial(mat, fr))
            diagonals.append((cls.schur[0].diagonal(), cls.stroh_norm))
    assert len(diagonals) == 453
    sizes = set()
    for _ in range(3000):
        norm = float(rng.uniform(0.5, 50.0))
        tol = factorization.GROUPING_TOL * (1.0 + norm)
        centers = rng.standard_normal(rng.integers(1, 4)) * (1.0 + rng.integers(2) * 1j)
        vals = rng.choice(centers, 6) + tol * (rng.uniform(-0.7, 0.7, 6)
                                               + 1j * rng.uniform(-0.7, 0.7, 6))
        diagonals.append((vals, norm))
    for vals, norm in diagonals:
        got = factorization._group(vals, norm)
        same_groups(got, group_numpy_scalars(vals, norm))
        sizes.update(alg for _, alg, _ in got)
    assert sizes == {1, 2, 3, 4, 5, 6}


class TestOneEntryStages:
    """`_spectra`, `_classify` and `_factorize` run one polynomial on its own
    arrays and Python floats, a stack on stacked arrays: each entry is bit
    for bit the same alone as in a stack of two, first or second, and a
    failing entry raises the same error alone as inside either stack."""

    @staticmethod
    def polynomials(iso, ti, rotated_ti) -> list:
        """Seeded frames in every region and 1e-10 either side of tau_L."""
        rng = np.random.default_rng(67)
        polys = []
        for mat in (iso, ti, rotated_ti, random_triclinic(rng)):
            frames = [fr for per_region in sample_frames(mat, rng, 2).values()
                      for fr in per_region]
            ang = rng.uniform(0.0, 2.0 * np.pi)
            eta_hat = np.array([np.cos(ang), np.sin(ang), 0.0])
            t_l = tau_limit(mat, NU, eta_hat)
            frames += [BoundaryFrame(NU, eta_hat, -t_l * (1.0 + d)) for d in (-1e-10, 1e-10)]
            polys += [boundary_polynomial(mat, fr) for fr in frames]
        return polys

    @staticmethod
    def three_ways(stage, a, b) -> list:
        """stage's outcome (`outcome`) for a: alone, first of [a, b] and second of [b, a]."""
        return [outcome(lambda: stage([a])[0]), outcome(lambda: stage([a, b])[0]),
                outcome(lambda: stage([b, a])[1])]

    def test_entries_alone_and_stacked(self, iso, ti, rotated_ti):
        polys = self.polynomials(iso, ti, rotated_ti)
        partner = boundary_polynomial(ti, frame(-0.5))      # elliptic: factorizes both ways
        checked = set()
        for a in polys:
            alone, first, second = self.three_ways(factorization._spectra, a, partner)
            for (points, norm, schur), _ in (first, second):
                assert [bits(p[0]) + p[1:] for p in points] == \
                    [bits(p[0]) + p[1:] for p in alone[0][0]]
                assert bits(norm) == bits(alone[0][1])
                assert [bits(x) for x in schur] == [bits(x) for x in alone[0][2]]
            cls, first, second = self.three_ways(factorization._classify, a, partner)
            for got, _ in (first, second):
                same_classification(got, cls[0])
            for direction in ("outgoing", "incoming"):
                def stage(polys, direction=direction):
                    return factorization._factorize(polys, [classify_spectrum(p) for p in polys],
                                                    direction, [p.frame.tau for p in polys])
                (f, error), *stacked = self.three_ways(stage, a, partner)
                for got, got_error in stacked:
                    assert got_error == error
                    if error is None:
                        same_factorization(got, f)
                checked.add(direction if error is None else error[0])
        assert checked == {"outgoing", "incoming"}

    def failing(self, iso, bad):
        """The error of bad's stage alone, and inside [bad, good] and [good, bad]."""
        good = boundary_polynomial(iso, frame(-2.5))
        errors = set()
        for stage in (factorization._spectra, factorization._classify, lambda polys: (
                factorization._factorize(polys, [classify_spectrum(p) for p in polys],
                                         "outgoing", [p.frame.tau for p in polys]))):
            for polys in ([bad], [bad, good], [good, bad]):
                with pytest.raises(ElasticError) as info:
                    stage(polys)
                errors.add((type(info.value), str(info.value)))
        return errors

    def test_nan_a2(self, iso):
        bad = boundary_polynomial(iso, frame(-1.5)).with_a2(np.full((3, 3), np.nan))
        assert self.failing(iso, bad) == {(NumericalDomainError, "Stroh matrix is not finite")}

    def test_zgees_info(self, iso, monkeypatch):
        bad = boundary_polynomial(iso, frame(-1.5))
        real, marked = _lapack.zgees, stroh(bad).tobytes()

        def zgees(select, s6, **kwargs):
            *out, info = real(select, s6, **kwargs)
            return (*out, 7 if s6.tobytes() == marked else info)

        monkeypatch.setattr(_lapack, "zgees", zgees)
        assert self.failing(iso, bad) == {(NumericalDomainError,
                                           "Schur form not found (zgees info 7)")}

    def test_glancing_frame(self, iso):
        # iso's double shear root glances at tau = -|eta| c_s = -1: its
        # spectrum and classification build, its factorization fails
        bad = boundary_polynomial(iso, frame(-1.0))
        for stage in (factorization._spectra, factorization._classify):
            assert len(stage([bad])) == 1
        stages = [lambda polys, d=d: factorization._factorize(
            polys, [classify_spectrum(p) for p in polys], d, [p.frame.tau for p in polys])
            for d in ("outgoing", "incoming")]
        good = boundary_polynomial(iso, frame(-2.5))
        for stage in stages:
            for polys in ([bad], [bad, good], [good, bad]):
                with pytest.raises(GlancingSpectrum,
                                   match="^spectrum has a glancing real eigenvalue$"):
                    stage(polys)

    def test_condition(self, iso, monkeypatch):
        # cond(X1), a Python float for one entry and a row of one stacked SVD
        # in a stack, fails the same check
        monkeypatch.setattr(factorization, "MAX_J_CONDITION", 0.0)
        bad = boundary_polynomial(iso, frame(-1.5))
        for polys in ([bad], [bad, bad]):
            with pytest.raises(IllConditionedJ, match="too ill-conditioned"):
                factorization._factorize(polys, [classify_spectrum(p) for p in polys],
                                         "outgoing", [p.frame.tau for p in polys])
