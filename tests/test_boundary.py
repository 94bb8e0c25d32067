import math
import types

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from elaswave import boundary, factorization
from elaswave.acoustic import acoustic_tensor, fibonacci_sphere
from elaswave.boundary import (
    BoundarySide,
    classify,
    classify_frames,
    ellipticity_margin,
    iso_impedance_closed_form,
    rayleigh_speed,
    stoneley_speed,
    tau_limit,
)
from elaswave.errors import (
    CoefficientOverflow,
    DegenerateA0,
    GlancingLimit,
    GlancingSpectrum,
    InvalidInput,
    NoSurfaceWave,
    NumericalDomainError,
    SigmaCardinality,
    SolvencyResidual,
    ValidationError,
)
from elaswave.factorization import (
    BoundaryFrame,
    _polynomial_stacks,
    boundary_polynomial,
    classify_spectrum,
    factorize,
)
from elaswave.impedance import impedance_from_factorization, mode_projectors
from elaswave.materials import (
    Material,
    check_strong_convexity,
    from_voigt,
    make_isotropic,
    make_transversely_isotropic,
    to_voigt,
)

from conftest import NU, random_triclinic, region_of, sample_frames
from oracles import (
    C_R_POISSON,
    limiting_tau_zoom,
    rayleigh_secular_roots,
    rayleigh_secular_speed,
    rayleigh_speed_fresh_sides,
    stoneley_speed_fresh_sides,
    surface_wave_bisection,
    tau_limit_fresh_sides,
)

ETA = np.array([1.0, 0.0, 0.0])
EHAT = ETA


def frame(tau, eta=ETA):
    return BoundaryFrame(NU, eta, tau)


class TestPolynomialStacks:
    """`_stacked_sides` builds the polynomials of all its materials with one
    stack of cores and settles A2 per material."""

    def test_same_bits_as_one_material(self, iso, ti, rotated_ti, hard):
        rng = np.random.default_rng(23)
        frames = [frame(-rng.uniform(0.3, 2.8), rng.uniform(0.2, 1.5) * np.array(
            [np.cos(ang), np.sin(ang), 0.0])) for ang in rng.uniform(0.0, 2.0 * np.pi, 5)]
        flipped = [fr.flipped() for fr in frames]
        for mats in ((iso, ti, rotated_ti, hard),
                     (random_triclinic(rng), hard, random_triclinic(rng), iso)):
            stacks = [(m, frames if k % 2 == 0 else flipped) for k, m in enumerate(mats)]
            sides = boundary._stacked_sides(stacks)
            for (m, frs), stack in zip(stacks, sides):
                for side, alone in zip(stack, _polynomial_stacks([(m, frs)])[0], strict=True):
                    a = side.poly
                    assert side.material is m and a.frame is alone.frame
                    assert (a.scale, a.rho) == (alone.scale, alone.rho)
                    for name in ("a0", "a1", "a2", "a1_sym"):
                        assert bits(getattr(a, name)) == bits(getattr(alone, name))
                    core, theirs = vars(a.core), vars(alone.core)
                    assert list(core) == list(theirs)
                    for name, value in core.items():
                        assert bits(value) == bits(theirs[name]), name

    def test_plus_material_fails_first(self, iso):
        # The + material's polynomials fail to settle (A0 not positive
        # definite) and the - material's coefficients overflow: either order
        # raises the first material's error, as building them one after
        # another does.
        nonconvex, huge = make_isotropic(1.0, -1.0, 1.0), make_isotropic(1e150, 1e150, 1.0)
        frames = [frame(-1.0), frame(-2.0)]
        for pair, error in (((nonconvex, huge), DegenerateA0),
                            ((huge, nonconvex), CoefficientOverflow),
                            ((iso, nonconvex), DegenerateA0)):
            with pytest.raises(error):
                boundary._stacked_sides(boundary._stacks(pair, frames))
            with pytest.raises(error):
                for m, frs in boundary._stacks(pair, frames):
                    _polynomial_stacks([(m, frs)])[0]


def bits(x):
    x = np.asarray(x)
    return x.dtype, x.shape, x.tobytes()


class TestBoundarySide:
    def test_matches_direct_chain(self, iso, ti):
        # Both directions of a side share its one classification, each is
        # built once, and every kept quantity equals, bit for bit, the direct
        # factorize -> impedance -> projectors chain on a fresh polynomial,
        # but the incoming z: that is the outgoing z conjugate-transposed,
        # which the direct incoming chain gives to roundoff.
        rng = np.random.default_rng(23)
        for mat in (iso, ti, random_triclinic(rng)):
            for frames in sample_frames(mat, rng, 1).values():
                side = BoundarySide(mat, frames[0])
                a = boundary_polynomial(mat, frames[0])
                for d in ("outgoing", "incoming"):
                    f = side.factorization(d)
                    assert f.classification is side.classification
                    assert side.factorization(d) is f
                    direct = factorize(a, d)
                    assert np.array_equal(f.q, direct.q)
                    z_direct = impedance_from_factorization(a, direct).z
                    if d == "outgoing":
                        assert np.array_equal(side.z(d), z_direct)
                    else:
                        assert np.array_equal(side.z(d), side.z().conj().T)
                        assert (np.linalg.norm(side.z(d) - z_direct)
                                <= 1e-13 * np.linalg.norm(z_direct))
                    got, want = side.projectors(d), mode_projectors(direct)
                    assert got.psi.keys() == want.psi.keys()
                    for s in want.psi:
                        assert np.array_equal(got.psi[s], want.psi[s])
                    assert np.array_equal(got.pi_c, want.pi_c)
                    assert got.dim_ec == want.dim_ec

    def test_incoming_z_is_the_outgoing_adjoint(self):
        # A(s) is Hermitian for real s, so z_in = z_out^H.  Against the
        # direct incoming chain on seeded strongly convex triclinic and
        # rotated-TI materials: frames in all three regions and 1e-10 either
        # side of the elliptic limit tau_L, each seen from nu and from -nu.
        # At tau_L (1 + d) two roots lie sqrt(|d|) apart, so both chains
        # carry roundoff amplified by 1/sqrt(|d|) = 1e5 there: 25 draws gave
        # at most 8.1e-15 in the regions and 3.3e-11 at tau_L.
        rng = np.random.default_rng(61)
        n_sides = 0
        for _ in range(5):
            for m in (random_triclinic(rng), _random_rotated_ti(rng)):
                frames = [(fr, 1e-13) for bucket in sample_frames(m, rng, 2).values()
                          for fr in bucket]
                ang = rng.uniform(0.0, 2.0 * np.pi)
                eta_hat = np.array([np.cos(ang), np.sin(ang), 0.0])
                t_l = tau_limit(m, NU, eta_hat)
                frames += [(frame(-t_l * (1.0 + d), eta_hat), 1e-13 / np.sqrt(abs(d)))
                           for d in (-1e-10, 1e-10)]
                for fr, tol in frames + [(fr.flipped(), tol) for fr, tol in frames]:
                    side = BoundarySide(m, fr)
                    z_in = side.z("incoming")
                    assert np.array_equal(z_in, side.z().conj().T)
                    a = boundary_polynomial(m, fr)
                    direct = impedance_from_factorization(a, factorize(a, "incoming")).z
                    assert np.linalg.norm(z_in - direct) <= tol * np.linalg.norm(direct)
                    n_sides += 1
        assert n_sides == 160


class TestClassify:
    def test_isotropic_regions(self, iso):
        # c_s = 1, c_p = 2, |eta| = 1
        assert classify(iso, frame(-0.5)).label == "elliptic"
        assert classify(iso, frame(-1.5)).label == "mixed"
        assert classify(iso, frame(-2.5)).label == "hyperbolic"

    def test_scale_invariance(self, iso, ti):
        rng = np.random.default_rng(41)
        for mat in (iso, ti):
            for _ in range(10):
                mag = rng.uniform(0.3, 2.0)
                tau = -rng.uniform(0.1, 2.4)
                fr1 = BoundaryFrame(NU, mag * ETA, tau * mag)
                fr2 = BoundaryFrame(NU, 3.0 * mag * ETA, 3.0 * tau * mag)
                r1 = classify(mat, fr1)
                if r1.is_glancing:
                    continue
                assert r1.label == classify(mat, fr2).label

    def test_interface_labels(self, iso, hard):
        pair = (iso, hard)
        r = classify(pair, frame(-0.4))
        assert r.label == "elliptic" and r.dim_intersection == 3
        r = classify(pair, frame(-3.5))
        assert r.label == "hyperbolic" and r.dim_intersection == 0

    def test_glancing_label(self, iso):
        assert classify(iso, frame(-1.0)).label == "glancing"

    def test_materials_are_one_or_a_pair(self, iso, hard):
        # Anything but one Material or a pair of them is bad input, on every
        # entry point that takes a boundary or an interface.
        frames = [frame(-1.5), frame(-2.5)]
        for bad in ((iso, hard, iso), (), (iso,), [iso, "hard"], "ab", None):
            for run in (lambda: classify(bad, frames[0]),
                        lambda: list(classify_frames(bad, frames)),
                        lambda: ellipticity_margin(bad, frames)):
                with pytest.raises(InvalidInput, match="one Material or a pair"):
                    run()
        assert classify([iso, hard], frames[0]) == classify((iso, hard), frames[0])


class TestClosedForm:
    def test_matches_factorization_grid(self, iso):
        worst = 0.0
        for ang in np.linspace(0.0, 2 * np.pi, 10, endpoint=False):
            eta = np.array([np.cos(ang), np.sin(ang), 0.0])
            for tau in (-0.3, -0.8, -1.2, -1.8, -2.3, -3.0, 0.6, 1.5, 2.7):
                fr = BoundaryFrame(NU, eta, tau)
                a = boundary_polynomial(iso, fr)
                z_fact = impedance_from_factorization(a, factorize(a, "outgoing"))
                z_cf = iso_impedance_closed_form(iso, fr)
                rel = (np.linalg.norm(z_cf.z - z_fact.z)
                       / np.linalg.norm(z_fact.z))
                worst = max(worst, rel)
        assert worst < 1e-10

    def test_normal_incidence(self, iso):
        fr = BoundaryFrame(NU, np.zeros(3), -1.0)
        z = iso_impedance_closed_form(iso, fr).z
        # z = -i diag(s_s mu, s_s mu, s_p (lam + 2 mu)), s = -tau/c
        assert np.allclose(z, -1j * np.diag([1.0, 1.0, 2.0]), atol=1e-12)

    def test_glancing_raises(self, iso):
        with pytest.raises(GlancingSpectrum):
            iso_impedance_closed_form(iso, frame(-1.0))

    def test_rejects_anisotropic(self, ti):
        with pytest.raises(ValidationError):
            iso_impedance_closed_form(ti, frame(-0.5))


class TestTauLimit:
    def test_isotropic_equals_cs(self, iso):
        assert tau_limit(iso, NU, EHAT) == pytest.approx(1.0, rel=1e-9)

    def test_poisson(self, poisson):
        assert tau_limit(poisson, NU, EHAT) == pytest.approx(1.0, rel=1e-9)

    def test_ti_matches_scan(self, ti):
        t = tau_limit(ti, NU, EHAT)
        # dense scan oracle: first tau with a real eigenvalue
        taus = np.linspace(0.8 * t, 1.2 * t, 400)
        first_real = next(tt for tt in taus if classify_spectrum(
            boundary_polynomial(ti, frame(-tt))).dim_evanescent < 3
            or classify_spectrum(boundary_polynomial(ti, frame(-tt))).has_real)
        assert abs(first_real - t) < (taus[1] - taus[0]) * 2

    @pytest.mark.parametrize("c_s", [1.1, 0.2])
    def test_brackets_without_repeating_a_tau(self, monkeypatch, c_s):
        # c_s = 1.1 brackets by doubling from tau = 1, c_s = 0.2 by halving
        taus = []
        real = boundary._spectra

        def recording(polys):
            taus.extend(a.frame.tau for a in polys)
            return real(polys)

        monkeypatch.setattr(boundary, "_spectra", recording)
        t = tau_limit(make_isotropic(1.0, c_s * c_s, 1.0), NU, EHAT)
        assert t == pytest.approx(c_s, rel=1e-9)
        assert taus and len(taus) == len(set(taus))

    @pytest.mark.parametrize("kind", ["triclinic", "rotated_ti"])
    def test_spectrum_alone_answers_as_classification(self, kind):
        # tau_limit's test reads the spectrum alone: on seeded materials and
        # azimuths, in all three regions and 1e-12 and 1e-10 either side of
        # the Barnett-Lothe limit tau_L, it answers what the full
        # classification does.
        labels = set()
        for seed in range(12):
            rng = np.random.default_rng([seed, 23])
            m = random_triclinic(rng) if kind == "triclinic" else _random_rotated_ti(rng)
            ang = rng.uniform(0.0, 2.0 * np.pi)
            poly = boundary_polynomial(m, BoundaryFrame(NU, [np.cos(ang), np.sin(ang), 0.0], -1.0))
            t_l = boundary._limiting_tau(poly.core, m.density)
            for factor in (0.5, 1 - 1e-10, 1 - 1e-12, 1 + 1e-12, 1 + 1e-10, 1.6, 2.5, 5.0):
                a = poly.with_tau(-factor * t_l)
                cls = classify_spectrum(a)
                assert boundary._fully_evanescent(a) == (
                    not cls.has_real and cls.dim_evanescent == 3)
                labels.add(region_of(m, a.frame))
        assert labels >= {"hyperbolic", "mixed", "elliptic"}

    def test_errors_are_typed(self, iso, monkeypatch):
        with pytest.raises(InvalidInput) as info:
            tau_limit(iso, NU, 2.0 * EHAT)
        assert isinstance(info.value, ValueError) and info.value.exit_code == 2

        # a spectrum that is never fully evanescent (one real point) cannot be bracketed
        never_elliptic = (((1.0 + 0j, 6, True),), 1.0, None)
        monkeypatch.setattr(boundary, "_spectra", lambda polys: [never_elliptic] * len(polys))
        with pytest.raises(GlancingLimit):
            tau_limit(iso, NU, EHAT)


def _limit_frame(kind: str, rng) -> tuple:
    """(material, eta_hat) of a seeded frame of one kind; a sagittal TI has its
    axis in the plane of nu and eta_hat."""
    azimuth = rng.uniform(0.0, 2.0 * np.pi)
    eta_hat = np.array([np.cos(azimuth), np.sin(azimuth), 0.0])
    if kind == "isotropic":     # lambda_min of l is a double eigenvalue
        m = make_isotropic(rng.uniform(0.1, 3.0), rng.uniform(0.2, 2.0), rng.uniform(0.5, 2.0))
    elif kind == "ti_axis_nu":
        m = _random_rotated_ti(rng, NU)
    elif kind == "rotated_ti":
        m = _random_rotated_ti(rng)
    elif kind == "triclinic":
        m = random_triclinic(rng)
    else:
        tilt = rng.uniform(0.0, np.pi)
        m = _random_rotated_ti(rng, np.cos(tilt) * NU + np.sin(tilt) * eta_hat)
    return m, eta_hat


def _limit_core(m, eta_hat):
    return boundary_polynomial(m, BoundaryFrame(NU, eta_hat, -1.0)).core


def _lying_eigvalsh(lie: str, stacks: list):
    """_lapack.eigvalsh that, on a Newton step's stack of three, reports the
    values (f(t - h), f(t), f(t + h)) with a negative curvature, a slope that
    sends the step out of its grid cell, or a slope that moves each step
    +-h off the true one, so that no step converges; stacks counts the
    stacks of three."""
    real, sign = boundary._lapack.eigvalsh, [1.0]

    def eigvalsh(a):
        vals = real(a)
        if a.shape == (3, 3, 3):
            stacks.append(len(stacks))
            f_lo, f_t, f_hi = vals[:, 0].tolist()
            curvature = f_hi - 2.0 * f_t + f_lo
            tilt = {"curvature": 0.0, "leaves": 1e6, "stalls": sign[0]}[lie] * curvature
            sign[0] = -sign[0]
            vals[:, 0] = (f_lo - tilt, f_t + (curvature if lie == "curvature" else 0.0),
                          f_hi + tilt)
        return vals
    return eigvalsh


LIMIT_KINDS = ["isotropic", "ti_axis_nu", "rotated_ti", "triclinic", "sagittal_ti"]


class TestLimitingTau:
    """The Barnett-Lothe limit by one grid pass and Newton steps, against zooms,
    and by the grid's least point where Newton fails."""

    @pytest.mark.parametrize("kind", LIMIT_KINDS)
    def test_newton_agrees_with_a_fine_zoom(self, kind, monkeypatch):
        # To 1e-13 relative against 12 zooms of 128-point grids, with Newton
        # converged on every frame, so that it, not the fallback grid point,
        # is what is compared.
        real, converged = boundary._newton_minimum, []

        def recording(*args):
            least = real(*args)
            converged.append(least is not None)
            return least

        monkeypatch.setattr(boundary, "_newton_minimum", recording)
        for seed in range(20):
            m, eta_hat = _limit_frame(kind, np.random.default_rng([seed, 26]))
            core = _limit_core(m, eta_hat)
            want = limiting_tau_zoom(core, m.density, zooms=12, points=128)
            assert abs(boundary._limiting_tau(core, m.density) - want) <= 1e-13 * want
        assert converged == [True] * 20

    @pytest.mark.parametrize("lie,steps", [("curvature", 1), ("leaves", 1), ("stalls", 8)])
    def test_failed_newton_falls_back_to_the_grid_point(self, monkeypatch, lie, steps):
        # A curvature that is not positive, a step out of the grid cell or 8
        # steps without converging: the grid's least point gives the limit,
        # bit for bit what one grid pass alone gives, after the same Newton
        # stacks, and tau_limit keeps its floats.
        frames = [_limit_frame(kind, np.random.default_rng([seed, 27]))
                  for kind in LIMIT_KINDS for seed in range(2)]
        honest = [tau_limit(m, NU, eta_hat) for m, eta_hat in frames]
        stacks = []
        monkeypatch.setattr(boundary, "_lapack", types.SimpleNamespace(
            **{**vars(boundary._lapack), "eigvalsh": _lying_eigvalsh(lie, stacks)}))
        for (m, eta_hat), want in zip(frames, honest):
            core = _limit_core(m, eta_hat)
            del stacks[:]
            assert boundary._limiting_tau(core, m.density) == limiting_tau_zoom(
                core, m.density, zooms=1)
            assert len(stacks) == steps
            assert tau_limit(m, NU, eta_hat) == want

    @given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["triclinic", "rotated_ti"]),
           azimuth=st.floats(0.0, 2.0 * np.pi))
    def test_two_or_three_probes(self, seed, kind, azimuth):
        # The limit places tau_limit's two probes beside the threshold: at
        # most one more spectrum is taken.
        rng = np.random.default_rng(seed)
        m = random_triclinic(rng) if kind == "triclinic" else _random_rotated_ti(rng)
        real, spectra = boundary._spectra, []

        def counting(polys):
            spectra.append(len(polys))
            return real(polys)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(boundary, "_spectra", counting)
            tau_limit(m, NU, np.array([np.cos(azimuth), np.sin(azimuth), 0.0]))
        assert 2 <= len(spectra) <= 3


class TestFrameShapes:
    @pytest.mark.parametrize("nu,eta_hat", [
        (NU, np.array([1.0, 0.0])), (NU[:, None], EHAT)])
    def test_surface_waves(self, iso, hard, nu, eta_hat):
        # a nu or eta_hat that is not a 3-vector is bad input (exit code 2),
        # not a matmul error from deeper in
        for solve in (lambda: tau_limit(iso, nu, eta_hat),
                      lambda: rayleigh_speed(iso, nu, eta_hat),
                      lambda: stoneley_speed(iso, hard, nu, eta_hat)):
            with pytest.raises(InvalidInput) as info:
                solve()
            assert info.value.exit_code == 2


    @pytest.mark.parametrize("eta_hat", [
        np.array([1j, 1.0, 0.0]), np.array([1 + 0j, 0.0, 0.0]), np.array([1e300, 0.0, 0.0]),
        np.array([np.nan, 0.0, 0.0]), np.array([True, False, False])],
        ids=["complex", "complex_real", "huge", "nan", "bool"])
    def test_bad_eta_hat(self, iso, hard, eta_hat):
        # typed, with no part of eta_hat dropped and no overflow warning
        for solve in (lambda: tau_limit(iso, NU, eta_hat),
                      lambda: rayleigh_speed(iso, NU, eta_hat),
                      lambda: stoneley_speed(iso, hard, NU, eta_hat)):
            with pytest.raises(InvalidInput, match="^eta_hat must be a unit vector"):
                solve()


class TestRayleigh:
    def test_poisson_speed(self, poisson):
        res = rayleigh_speed(poisson, NU, EHAT)
        oracle = rayleigh_secular_speed(1.0, 1.0, 1.0)
        assert res.tau_r == pytest.approx(C_R_POISSON, abs=1e-4)
        assert res.tau_r == pytest.approx(oracle, abs=1e-8)
        assert res.det_residual < 1e-8

    def test_null_vector(self, poisson):
        res = rayleigh_speed(poisson, NU, EHAT)
        fr = frame(-res.tau_r)
        a = boundary_polynomial(poisson, fr)
        z = impedance_from_factorization(a, factorize(a, "outgoing")).z
        v = res.polarization
        assert np.linalg.norm(z @ v) < 1e-7 * np.linalg.norm(z)

    @pytest.mark.parametrize("lam", [-0.5, -0.7, -0.9, -0.95])
    def test_secular_oracle_negative_lambda(self, lam):
        # Roots below x = 0.5, where the secular oracle's bisection starts
        # from 0+ rather than from a fixed lower end.
        oracle = rayleigh_secular_speed(lam, 1.0, 1.0)
        assert rayleigh_speed(make_isotropic(lam, 1.0, 1.0), NU, EHAT).tau_r == pytest.approx(
            oracle, abs=1e-8)

    @pytest.mark.parametrize("lam", [-0.5, -0.9, -0.99, -1.0, -1.01, -1.2, -1.5, -1.9])
    def test_negative_lambda(self, lam):
        # Strongly elliptic (lambda + 2 mu > 0) for all these; past
        # lambda = -mu not strongly convex, and the secular function has no
        # zero below the limiting speed (at lambda = -mu it is x^4).  No
        # frame glances there, so the error is NoSurfaceWave.
        m = make_isotropic(lam, 1.0, 1.0)
        roots = rayleigh_secular_roots(lam, 1.0, 1.0)
        if lam > -1.0:
            (root,) = roots
            assert rayleigh_speed(m, NU, EHAT).tau_r == pytest.approx(root, abs=1e-5)
        else:
            assert roots == []
            with pytest.raises(NoSurfaceWave, match="not positive definite"):
                rayleigh_speed(m, NU, EHAT)

    def test_nonconvex_anisotropic(self):
        # Isotropic lambda = -1.3 mu plus a 5 % triclinic part: strongly
        # elliptic, not strongly convex.  lambda_min(z(tau)) is negative on a
        # dense scan of the whole interval, so no wave is bracketed.
        rng = np.random.default_rng(3)
        g = rng.uniform(-0.05, 0.05, (6, 6))
        voigt = to_voigt(make_isotropic(-1.3, 1.0, 1.0).stiffness) + g + g.T
        m = Material(from_voigt(voigt), 1.0)
        assert not check_strong_convexity(m.stiffness)[0]
        assert min(np.linalg.eigvalsh(acoustic_tensor(m.stiffness, xi))[0]
                   for xi in fibonacci_sphere(500)) > 0
        eta_hat = np.array([np.cos(1.1), np.sin(1.1), 0.0])
        tau_eta = tau_limit(m, NU, eta_hat)
        scan = []
        for t in np.linspace(1e-3, 1.0 - 1e-6, 400) * tau_eta:
            a = boundary_polynomial(m, frame(-t, eta_hat))
            z = impedance_from_factorization(a, factorize(a, "outgoing")).z
            scan.append(np.linalg.eigvalsh(0.5 * (z + z.conj().T))[0])
        assert max(scan) < 0
        with pytest.raises(NoSurfaceWave, match="not positive definite"):
            rayleigh_speed(m, NU, eta_hat)

    def test_lambda_min_monotone(self, poisson):
        # consequence of the negative-definite tau^2 derivative
        vals = []
        for t in np.linspace(0.05, 0.95, 50):
            a = boundary_polynomial(poisson, frame(-t))
            z = impedance_from_factorization(a, factorize(a, "outgoing")).z
            vals.append(np.linalg.eigvalsh(0.5 * (z + z.conj().T))[0])
        assert all(b < a for a, b in zip(vals, vals[1:]))


class TestStoneley:
    def test_identical_materials_no_wave(self, iso):
        with pytest.raises(NoSurfaceWave):
            stoneley_speed(iso, iso, NU, EHAT)

    def test_light_halfspace_limit(self, poisson):
        # as one side's density vanishes at fixed stiffness ratio the root
        # approaches the heavy side's Rayleigh frequency
        ray = rayleigh_speed(poisson, NU, EHAT)
        light = make_isotropic(1e-3, 1e-3, 1e-3)
        res = stoneley_speed(poisson, light, NU, EHAT)
        assert abs(res.tau_r - ray.tau_r) / ray.tau_r < 0.01

    def test_sum_hermitian_elliptic(self, iso, hard):
        fr = frame(-0.3)
        ap = boundary_polynomial(iso, fr)
        am = boundary_polynomial(hard, fr.flipped())
        zsum = (impedance_from_factorization(ap, factorize(ap, "outgoing")).z
                + impedance_from_factorization(am, factorize(am, "outgoing")).z)
        assert (np.linalg.norm(zsum - zsum.conj().T)
                / np.linalg.norm(zsum)) < 1e-9


def _stoneley_probe(monkeypatch, m_plus, m_minus):
    """The lambda_min argument tau -> z+ + z- that stoneley_speed bisects."""
    with monkeypatch.context() as mp:
        mp.setattr(boundary, "_surface_wave_bisect", lambda zfun, tau_eta: zfun)
        return stoneley_speed(m_plus, m_minus, NU, EHAT)


def _sequential_sum(m_plus, m_minus, t):
    fr = frame(-t)
    return BoundarySide(m_plus, fr).z() + BoundarySide(m_minus, fr.flipped()).z()


class TestStackedStoneleyProbe:
    """A Stoneley probe builds its (+, -) sides as one stack."""

    def test_same_bits_as_sides_one_after_another(self, iso, hard, ti, rotated_ti,
                                                  monkeypatch):
        for pair in ((iso, hard), (ti, rotated_ti)):
            zfun = _stoneley_probe(monkeypatch, *pair)
            for t in (0.05, 0.3, 0.7, 0.9, 0.99):
                assert np.array_equal(zfun(t), _sequential_sum(*pair, t))

    def test_first_error_is_the_sequential_one(self, iso, hard, monkeypatch):
        # At one tau the + side fails its root check and the - side its
        # target.  A stack takes every target before any root check, so it
        # meets the - side's error first; the probe raises the + side's, as
        # building the + side, then the - side, does.
        t = 0.5
        plus, minus = (BoundarySide(iso, frame(-t)),
                       BoundarySide(hard, frame(-t).flipped()))
        norms = {side.classification.stroh_norm: name
                 for side, name in ((plus, "+"), (minus, "-"))}
        target, validate = factorization._target, factorization._validate

        def failing_target(cls, direction, tau):
            if norms.get(cls.stroh_norm) == "-":
                raise SigmaCardinality("injected target failure of the - side")
            return target(cls, direction, tau)

        def failing_validate(facts, *stacks):
            validate(facts, *stacks)
            if norms.get(facts[0].classification.stroh_norm) == "+":
                raise SolvencyResidual("injected root failure of the + side")

        zfun = _stoneley_probe(monkeypatch, iso, hard)
        monkeypatch.setattr(factorization, "_target", failing_target)
        monkeypatch.setattr(factorization, "_validate", failing_validate)
        with pytest.raises(SigmaCardinality, match="- side"):
            boundary._stacked_factorizations([plus, minus])
        with pytest.raises(SolvencyResidual, match=r"\+ side"):
            zfun(t)
        with pytest.raises(SolvencyResidual, match=r"\+ side"):
            _sequential_sum(iso, hard, t)
        assert np.array_equal(zfun(0.3), _sequential_sum(iso, hard, 0.3))


class TestProbeBits:
    """A surface-wave probe factorizes a polynomial at the probed tau without
    a BoundarySide; every z that a search reads is, bit for bit, the z of
    BoundarySides built at that tau."""

    @staticmethod
    def probes(monkeypatch, solve) -> list:
        """(t, z) of every z that the search of solve() reads."""
        seen, real = [], boundary._surface_wave_bisect

        def recording(zfun, tau_eta):
            def zfun_seen(t):
                seen.append((t, zfun(t)))
                return seen[-1][1]
            return real(zfun_seen, tau_eta)

        with monkeypatch.context() as mp:
            mp.setattr(boundary, "_surface_wave_bisect", recording)
            solve()
        return seen

    def test_rayleigh_probes(self, poisson, ti, rotated_ti, monkeypatch):
        for ang in (0.0, 0.9, 2.3):
            eta_hat = np.array([np.cos(ang), np.sin(ang), 0.0])
            for mat in (poisson, ti, rotated_ti):
                seen = self.probes(monkeypatch, lambda: rayleigh_speed(mat, NU, eta_hat))
                assert len(seen) >= 4
                for t, z in seen:
                    side = BoundarySide(mat, BoundaryFrame(NU, eta_hat, -t))
                    assert bits(z) == bits(side.z())

    def test_stoneley_probes(self, iso, hard, monkeypatch):
        seen = self.probes(monkeypatch, lambda: stoneley_speed(iso, hard, NU, EHAT))
        assert len(seen) >= 4
        for t, z in seen:
            assert bits(z) == bits(_sequential_sum(iso, hard, t))


def _same_result(got, want):
    assert got.tau_r == want.tau_r
    assert got.tau_eta == want.tau_eta
    assert got.bracket == want.bracket
    assert got.det_residual == want.det_residual
    assert got.polarization.tobytes() == want.polarization.tobytes()


class TestScansShareOneCore:
    AZIMUTHS = (0.0, 0.9, 2.3)

    def test_same_floats_as_fresh_sides(self, poisson, ti, rotated_ti, iso, hard):
        # Each scan builds one polynomial and moves it in tau; every float
        # must equal the scan that builds a fresh BoundarySide per probe.
        for mat in (poisson, ti, rotated_ti):
            for ang in self.AZIMUTHS:
                eta_hat = np.array([np.cos(ang), np.sin(ang), 0.0])
                assert tau_limit(mat, NU, eta_hat) == tau_limit_fresh_sides(mat, NU, eta_hat)
                _same_result(rayleigh_speed(mat, NU, eta_hat),
                             rayleigh_speed_fresh_sides(mat, NU, eta_hat))
        _same_result(stoneley_speed(iso, hard, NU, EHAT),
                     stoneley_speed_fresh_sides(iso, hard, NU, EHAT))

    def test_one_polynomial_per_side_per_scan(self, poisson, iso, hard, monkeypatch):
        calls = []
        real = boundary.boundary_polynomial
        monkeypatch.setattr(boundary, "boundary_polynomial",
                            lambda m, fr: calls.append(fr.tau) or real(m, fr))
        rayleigh_speed(poisson, NU, EHAT)
        assert len(calls) == 1        # tau_limit's side serves the root too
        calls.clear()
        stoneley_speed(iso, hard, NU, EHAT)
        # one per tau_limit, and the - side's root at the flipped frame
        assert len(calls) == 3

    # (seed of random_triclinic, azimuth) where s -> lambda_min(l(eta_hat + s nu))
    # has several local minima, so a coarse search for the limit can settle
    # in the wrong one
    TRICLINIC = ((1, 0.3), (4, 1.1), (6, 1.9), (9, 2.7))

    @staticmethod
    def local_minima(m, eta_hat) -> int:
        theta = np.linspace(-0.5 * np.pi, 0.5 * np.pi, 2001)[1:-1]
        xi = np.cos(theta)[:, None] * eta_hat + np.sin(theta)[:, None] * NU
        l_xi = np.einsum("ijkm,nj,nm->nik", m.stiffness.entries, xi, xi)
        f = np.linalg.eigvalsh(l_xi)[:, 0] / np.cos(theta) ** 2
        return int(np.sum((f[1:-1] < f[:-2]) & (f[1:-1] < f[2:])))

    def test_triclinic_same_floats_as_fresh_sides(self):
        for seed, ang in self.TRICLINIC:
            mat = random_triclinic(np.random.default_rng(seed))
            eta_hat = np.array([np.cos(ang), np.sin(ang), 0.0])
            assert self.local_minima(mat, eta_hat) >= 2
            assert tau_limit(mat, NU, eta_hat) == tau_limit_fresh_sides(mat, NU, eta_hat)
            _same_result(rayleigh_speed(mat, NU, eta_hat),
                         rayleigh_speed_fresh_sides(mat, NU, eta_hat))


def _scans(poisson, ti, rotated_ti, iso, hard) -> list:
    out = []
    for mat in (poisson, ti, rotated_ti):
        for ang in (0.0, 2.3):
            eta_hat = np.array([np.cos(ang), np.sin(ang), 0.0])
            out += [tau_limit(mat, NU, eta_hat), rayleigh_speed(mat, NU, eta_hat)]
    return out + [stoneley_speed(iso, hard, NU, EHAT)]


@pytest.fixture(scope="module")
def unhinted(poisson, ti, rotated_ti, iso, hard):
    """Every scan with neither the limiting-tau hint nor the root search's
    interior start and estimates: surface waves by bisection alone."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(boundary, "_limiting_tau", lambda core, rho: None)
        mp.setattr(boundary, "_surface_wave_bisect", surface_wave_bisection)
        return _scans(poisson, ti, rotated_ti, iso, hard)


def _random_rotated_ti(rng, axis=None) -> Material:
    """Strongly convex, strongly anisotropic TI with the given axis, or a
    random one."""
    while True:
        direction = rng.standard_normal(3) if axis is None else axis
        m = make_transversely_isotropic(
            rng.uniform(0.8, 1.2), rng.uniform(0.8, 1.2), rng.uniform(-0.3, 0.3),
            rng.uniform(0.3, 0.6), rng.uniform(0.5, 1.5), direction / np.linalg.norm(direction),
            1.0)
        if check_strong_convexity(m.stiffness)[0]:
            return m


def _stoneley_partner(m, rng) -> Material:
    """m three times as dense and stiff, its Voigt matrix jittered by up to
    5 %: a pair that often carries a Stoneley wave."""
    g = rng.uniform(-0.05, 0.05, (6, 6))
    stiffness = from_voigt(3.0 * to_voigt(m.stiffness) * (1.0 + 0.5 * (g + g.T)))
    if not check_strong_convexity(stiffness)[0]:
        stiffness = from_voigt(3.0 * to_voigt(m.stiffness))
    return Material(stiffness, 3.0 * m.density)


def _outcome(solve):
    """solve()'s result, or its error as (type, message)."""
    try:
        return solve()
    except NumericalDomainError as exc:
        return type(exc), str(exc)


class TestHintsOnlySaveProbes:
    """The Barnett-Lothe limit and the root estimates choose which bisection
    probes run; a wrong or missing hint costs probes only."""

    @pytest.mark.parametrize("factor,root_hint", [
        (1.0, True), (0.5, True), (2.0, True), (None, True), (1.0, False)])
    def test_same_floats_as_unhinted(self, poisson, ti, rotated_ti, iso, hard,
                                     unhinted, monkeypatch, factor, root_hint):
        real = boundary._limiting_tau
        monkeypatch.setattr(boundary, "_limiting_tau", lambda core, rho: (
            None if factor is None else factor * real(core, rho)))
        if not root_hint:
            monkeypatch.setattr(boundary, "_surface_wave_bisect", surface_wave_bisection)
        for got, want in zip(_scans(poisson, ti, rotated_ti, iso, hard), unhinted,
                             strict=True):
            if isinstance(want, float):
                assert got == want
            else:
                _same_result(got, want)

    def test_probe_counts(self, poisson, ti, rotated_ti, iso, hard, monkeypatch):
        # Unhinted, each tau_limit here takes 35 or 36 spectra, each a
        # `_spectra` stack of one; hinted, it takes the two beside the
        # Barnett-Lothe limit and at most one more.  Unhinted, Poisson's
        # Rayleigh solve factorizes 37 times.  A regula falsi in tau took 14
        # (Poisson), 13 (TI) and 13 (the Stoneley pair, each probe two
        # factorize calls) probes; the secant in the edge variable took 9, 7
        # and 10, one stack per Stoneley probe, each counting the root's
        # rebuilt z.  Closing the bracket on the bisection's own answer took
        # 8, 6 and 8: the root's z is a probe's.  Starting inside the
        # interval takes 6, 7 and 7: the ends are probed only where the
        # interior start leaves their checks open (none for Poisson and TI,
        # the high end for the pair).  TI takes one more than before: the
        # secant from the two ends happened to land 4e-6 from its root.
        calls = {"spectra": 0, "factorize": 0, "stack": 0}
        for name, key in (("_spectra", "spectra"), ("factorize", "factorize"),
                          ("_factorize", "stack")):
            real = getattr(boundary, name)

            def counting(*args, _real=real, _key=key, **kwargs):
                calls[_key] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(boundary, name, counting)
        for mat in (poisson, ti, rotated_ti):
            calls["spectra"] = 0
            tau_limit(mat, NU, np.array([np.cos(2.3), np.sin(2.3), 0.0]))
            assert 2 <= calls["spectra"] <= 3
        calls["factorize"] = 0
        rayleigh_speed(poisson, NU, EHAT)
        assert calls["factorize"] == 6
        calls["factorize"] = 0
        rayleigh_speed(ti, NU, EHAT)
        assert calls["factorize"] == 7
        calls["factorize"] = calls["stack"] = 0
        stoneley_speed(iso, hard, NU, EHAT)
        assert calls["factorize"] == 0 and calls["stack"] == 7

    def test_failing_probe_ends_the_narrowing(self, poisson, iso, hard, monkeypatch):
        # A probe that raises a NumericalDomainError ends the estimates.
        # Here the first probe of the interior start raises, so the solve
        # probes both ends and then every midpoint, as bisection alone
        # does: it builds z at the taus bisection alone builds it at, in
        # that order, and every float is that of bisection alone.
        library, built = boundary._surface_wave_bisect, []

        def run(solve, search):
            built.clear()
            with monkeypatch.context() as mp:
                mp.setattr(boundary, "_surface_wave_bisect", lambda zfun, tau_eta: search(
                    lambda t: built.append(t) or zfun(t), tau_eta))
                return solve(), list(built)

        real_lambda_min, failed = boundary._lambda_min, []

        def failing_first(zmat):
            if not failed:
                failed.append(zmat)
                raise NumericalDomainError("forced probe failure")
            return real_lambda_min(zmat)

        for solve in (lambda: rayleigh_speed(poisson, NU, EHAT),
                      lambda: stoneley_speed(iso, hard, NU, EHAT)):
            want, plain = run(solve, surface_wave_bisection)
            failed.clear()
            with monkeypatch.context() as mp:
                mp.setattr(boundary, "_lambda_min", failing_first)
                got, taus = run(solve, library)
            _same_result(got, want)
            assert len(failed) == 1
            assert taus[0] == got.tau_eta * (1.0 - boundary.START_U[0] ** 2)
            assert taus[1:] == plain

    @given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["triclinic", "rotated_ti"]),
           azimuth=st.floats(0.0, 2.0 * np.pi), stoneley=st.booleans())
    def test_same_floats_as_bisection(self, seed, kind, azimuth, stoneley):
        # Random materials and azimuths: every float of a solve, or its error,
        # is that of the same solve by bisection alone.
        rng = np.random.default_rng(seed)
        m = random_triclinic(rng) if kind == "triclinic" else _random_rotated_ti(rng)
        eta_hat = np.array([np.cos(azimuth), np.sin(azimuth), 0.0])
        if stoneley:
            partner = _stoneley_partner(m, rng)
            solve = lambda: stoneley_speed(m, partner, NU, eta_hat)  # noqa: E731
        else:
            solve = lambda: rayleigh_speed(m, NU, eta_hat)  # noqa: E731
        got = _outcome(solve)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(boundary, "_surface_wave_bisect", surface_wave_bisection)
            want = _outcome(solve)
        if isinstance(want, tuple):
            assert got == want
        else:
            _same_result(got, want)


def _diagonal_solve(monkeypatch, root, oracle=False, fail_at=None):
    """boundary._surface_wave_bisect, or with oracle=True the bisection alone
    of tests/oracles.py, on z(t) = diag(root - t, 1, 2) with tau_eta = 1, so
    that lambda_min = root - t changes sign exactly at root: the result,
    every tau z was built at in order, and how many of those were probes
    (calls of boundary._lambda_min, which the oracle does not make).  The
    build numbered fail_at (from 0) raises a NumericalDomainError instead,
    once."""
    taus, probes, calls = [], [], []
    real_lambda_min = boundary._lambda_min

    def zfun(t):
        calls.append(t)
        if len(calls) - 1 == fail_at:
            raise NumericalDomainError("forced probe failure")
        taus.append(t)
        return np.diag([root - t, 1.0, 2.0]).astype(complex)

    with monkeypatch.context() as mp:
        mp.setattr(boundary, "_lambda_min", lambda zmat: probes.append(1) or real_lambda_min(zmat))
        result = (surface_wave_bisection if oracle else boundary._surface_wave_bisect)(zfun, 1.0)
    return result, taus, len(probes)


def _walk_roots(monkeypatch) -> dict:
    """Roots on, beside and between the midpoints of a plain bisection."""
    base = 0.7
    plain, taus, _ = _diagonal_solve(monkeypatch, base, oracle=True)
    midpoints = taus[2:-1]     # the ends, the midpoints, then the root's z
    last, early = midpoints[-1], midpoints[5]
    return {"generic": base, "low": 0.3, "high": 0.999, "mid_cell": plain.tau_r,
            "last_midpoint": last, "early_midpoint": early,
            "above_last": last * (1.0 + 1e-14), "below_last": last * (1.0 - 1e-14),
            "above_early": early * (1.0 + 1e-14)}


def _plain_bisection(test, lo: float, hi: float) -> float:
    """The bisection loop alone: every midpoint probed, none answered from a
    bracket."""
    while hi - lo > boundary.BISECTION_TOL * hi:
        mid = 0.5 * (lo + hi)
        if test(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestClosingOnTheWalk:
    """The estimates close the bracket on the bisection's own answer tau_r,
    whose z is then a probe's, kept for the solve."""

    @given(data=st.data(), where=st.sampled_from(["between", "on", "beside"]),
           curved=st.booleans())
    def test_bisect_is_the_plain_loop(self, data, where, curved):
        # Thresholds on, a few ulps beside and between the midpoints of a
        # plain walk, for a test linear in t or with lambda_min's square-root
        # branch at tau_eta = 1: _bisect, and the surface-wave search with
        # its interior start and estimates, return the plain loop's tau_r.
        lo, hi = 1e-3, 1.0 - boundary.EDGE_OFFSET
        root = data.draw(st.floats(lo, hi, exclude_min=True), label="base")
        if where != "between":
            midpoints = []
            _plain_bisection(lambda t: midpoints.append(t) or root - t, lo, hi)
            root = data.draw(st.sampled_from(midpoints), label="midpoint")
            if where == "beside":
                root += data.draw(st.integers(-64, 64).filter(bool), label="ulps") * math.ulp(root)
        test = ((lambda t: math.sqrt(1.0 - t) - math.sqrt(1.0 - root)) if curved
                else (lambda t: root - t))
        assume(test(lo) > 0 >= test(hi))
        want = _plain_bisection(test, lo, hi)
        assert boundary._bisect(boundary._Threshold(test), lo, hi) == want
        # the whole search, interior start and estimates, on z = diag(test, 2, 3)
        zfun = lambda t: np.diag([test(t), 2.0, 3.0]).astype(complex)  # noqa: E731
        assert boundary._surface_wave_bisect(zfun, 1.0).tau_r == want

    ROOTS = ("generic", "low", "high", "mid_cell", "last_midpoint", "early_midpoint",
             "above_last", "below_last", "above_early")

    @pytest.mark.parametrize("name", ROOTS)
    def test_same_root_and_no_tau_twice(self, monkeypatch, name):
        root = _walk_roots(monkeypatch)[name]
        got, taus, probes = _diagonal_solve(monkeypatch, root)
        want, _, _ = _diagonal_solve(monkeypatch, root, oracle=True)
        _same_result(got, want)
        assert len(set(taus)) == len(taus)
        # every build is a probe, then z(tau_r) once more only where no
        # probe was at tau_r
        probed = taus[:probes]
        assert taus == probed + ([] if got.tau_r in probed else [got.tau_r])

    def test_the_root_is_probed_where_the_estimate_decides(self, monkeypatch):
        # Off the midpoints, the parabola's estimate decides every midpoint
        # left, so the bracket closes on tau_r.  On or within 1e-14 of a
        # midpoint, less than the tolerance the estimate is taken to, that
        # midpoint stays open, and z(tau_r) is built after, unless a probe at
        # the estimate lands between the midpoint and the root and so decides
        # it (below the last midpoint and above the early one, here).
        roots = _walk_roots(monkeypatch)
        for name in self.ROOTS:
            got, taus, probes = _diagonal_solve(monkeypatch, roots[name])
            assert (got.tau_r in taus[:probes]) == (name in (
                "generic", "low", "high", "mid_cell", "below_last", "above_early")), name

    def test_estimates_stop_at_the_tolerance(self, monkeypatch):
        # A root 1e-14 above the walk's last midpoint: the estimates narrow
        # the bracket to 1e-13 (1 - EDGE_OFFSET) tau_eta around it without
        # deciding that midpoint, and stop there; the bisection then probes
        # the midpoint itself.
        roots, widths, real = _walk_roots(monkeypatch), [], boundary._estimate

        def estimate(holds, walk, tau_eta):
            widths.append(holds.above - holds.below)
            return real(holds, walk, tau_eta)

        monkeypatch.setattr(boundary, "_estimate", estimate)
        _, taus, probes = _diagonal_solve(monkeypatch, roots["above_last"])
        assert min(widths) > 1e-13 * (1.0 - boundary.EDGE_OFFSET)
        assert roots["last_midpoint"] in taus[:probes]

    @pytest.mark.parametrize("fail_at", [0, 1, 4, 6, 8])
    def test_failing_probe(self, monkeypatch, fail_at):
        # Build fail_at raises: builds 0 and 1 are the interior start, 2 the
        # low end it leaves open (`test_failing_end_raises`), 3 to 8 the
        # estimates, 8 the last, which closes the bracket.  The estimates
        # end, the ends left open are probed, the bisection probes the
        # midpoints left itself (then builds z(tau_r)), and its root is that
        # of bisection alone.
        root = _walk_roots(monkeypatch)["generic"]
        got, taus, _ = _diagonal_solve(monkeypatch, root, fail_at=fail_at)
        want, plain, _ = _diagonal_solve(monkeypatch, root, oracle=True)
        _same_result(got, want)
        assert len(set(taus)) == len(taus)
        assert set(taus[fail_at:]) <= set(plain)
        assert (1e-3 in taus, 1.0 - 1e-6 in taus) == ((True, True) if fail_at == 0
                                                      else (True, False))

    def test_failing_end_raises(self, monkeypatch):
        # an end probe that raises ends the solve, as it did when the ends
        # came first; here build 2, the low end the interior start leaves open
        root = _walk_roots(monkeypatch)["generic"]
        with pytest.raises(NumericalDomainError, match="forced probe failure"):
            _diagonal_solve(monkeypatch, root, fail_at=2)

    START = [1.0 - u ** 2 for u in boundary.START_U]     # tau at each u of START_U, tau_eta = 1

    @pytest.mark.parametrize("root,ends", [(0.95, ()), (0.5, (1e-3,)), (0.99, (1.0 - 1e-6,))],
                             ids=["between_interior_probes", "below_them", "above_them"])
    def test_ends_probed_only_where_open(self, monkeypatch, root, ends):
        # lambda_min = root - t: the interior start probes u = 0.3, then 0.15
        # or 0.45; an end is probed only where both lie on one side of the
        # root, and the floats are those of bisection alone
        got, taus, _ = _diagonal_solve(monkeypatch, root)
        want, plain, _ = _diagonal_solve(monkeypatch, root, oracle=True)
        _same_result(got, want)
        assert got.tau_r == _plain_bisection(lambda t: root - t, 1e-3, 1.0 - 1e-6)
        second = self.START[1] if root > self.START[0] else self.START[2]
        assert taus[:2 + len(ends)] == [self.START[0], second, *ends]
        assert {1e-3, 1.0 - 1e-6} & set(taus) == set(ends)
        assert plain[:2] == [1e-3, 1.0 - 1e-6]      # bisection alone: the ends first

    @pytest.mark.parametrize("root,message,second,end", [
        (1e-4, "not positive definite at the low endpoint", 2, 1e-3),
        (1.0, "stays positive", 1, 1.0 - 1e-6)], ids=["below_low_end", "above_high_end"])
    def test_no_surface_wave(self, monkeypatch, root, message, second, end):
        # both interior probes, then the end that decides; the error is the
        # one bisection alone, probing both ends first, gives
        taus = []

        def zfun(t):
            taus.append(t)
            return np.diag([root - t, 1.0, 2.0]).astype(complex)

        with pytest.raises(NoSurfaceWave, match=message) as got:
            boundary._surface_wave_bisect(zfun, 1.0)
        assert taus == [self.START[0], self.START[second], end]
        with pytest.raises(NoSurfaceWave) as want:
            surface_wave_bisection(zfun, 1.0)
        assert str(got.value) == str(want.value)
        assert taus[3:] == [1e-3, 1.0 - 1e-6]     # the two ends only


class TestEllipticityMargin:
    def test_boundary_margins(self, iso):
        frames = [frame(t) for t in np.linspace(-3.2, -1.05, 40)]
        margin, rows = ellipticity_margin(iso, frames)
        assert margin > 1e-3
        assert all(label in ("hyperbolic", "mixed") for _, label, _ in rows)

    def test_interface_margins(self, iso, hard):
        frames = [frame(t) for t in np.linspace(-4.0, -1.1, 30)]
        margin, _ = ellipticity_margin((iso, hard), frames)
        assert margin > 1e-3

    def test_rayleigh_zero_reported(self, poisson):
        res = rayleigh_speed(poisson, NU, EHAT)
        fr = frame(-res.tau_r)
        a = boundary_polynomial(poisson, fr)
        z = impedance_from_factorization(a, factorize(a, "outgoing")).z
        sv = np.linalg.svd(z, compute_uv=False)
        assert sv[-1] / sv[0] < 1e-7   # margin collapses at the Rayleigh point
