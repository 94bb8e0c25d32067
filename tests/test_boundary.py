import numpy as np
import pytest

from elaswave import boundary
from elaswave.boundary import (
    BoundarySide,
    RegionClass,
    classify,
    ellipticity_margin,
    iso_impedance_closed_form,
    rayleigh_speed,
    stoneley_speed,
    tau_limit,
)
from elaswave.errors import (
    GlancingLimit,
    GlancingSpectrum,
    InvalidInput,
    NoSurfaceWave,
    ValidationError,
)
from elaswave.factorization import BoundaryFrame, boundary_polynomial, factorize
from elaswave.impedance import impedance_from_factorization, mode_projectors
from elaswave.materials import make_isotropic

from conftest import NU, random_triclinic, sample_frames
from oracles import C_R_POISSON, rayleigh_secular_speed

ETA = np.array([1.0, 0.0, 0.0])
EHAT = ETA


def frame(tau, eta=ETA):
    return BoundaryFrame(NU, eta, tau)


class TestBoundarySide:
    def test_matches_direct_chain(self, iso, ti):
        # Both directions of a side share its one classification, each is
        # built once, and every kept quantity equals, bit for bit, the direct
        # factorize -> impedance -> projectors chain on a fresh polynomial.
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
                    assert np.array_equal(side.z(d),
                                          impedance_from_factorization(a, direct).z)
                    got, want = side.projectors(d), mode_projectors(direct)
                    assert got.psi.keys() == want.psi.keys()
                    for s in want.psi:
                        assert np.array_equal(got.psi[s], want.psi[s])
                    assert np.array_equal(got.pi_c, want.pi_c)
                    assert got.dim_ec == want.dim_ec


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
        from elaswave.factorization import classify_spectrum
        taus = np.linspace(0.8 * t, 1.2 * t, 400)
        first_real = next(tt for tt in taus if classify_spectrum(
            boundary_polynomial(ti, frame(-tt))).dim_evanescent < 3
            or classify_spectrum(boundary_polynomial(ti, frame(-tt))).has_real)
        assert abs(first_real - t) < (taus[1] - taus[0]) * 2

    @pytest.mark.parametrize("c_s", [1.1, 0.2])
    def test_brackets_without_repeating_a_tau(self, monkeypatch, c_s):
        # c_s = 1.1 brackets by doubling from tau = 1, c_s = 0.2 by halving
        taus = []
        real = boundary.classify_spectrum

        def recording(a):
            taus.append(a.frame.tau)
            return real(a)

        monkeypatch.setattr(boundary, "classify_spectrum", recording)
        t = tau_limit(make_isotropic(1.0, c_s * c_s, 1.0), NU, EHAT)
        assert t == pytest.approx(c_s, rel=1e-9)
        assert len(taus) == len(set(taus))

    def test_errors_are_typed(self, iso, monkeypatch):
        with pytest.raises(InvalidInput) as info:
            tau_limit(iso, NU, 2.0 * EHAT)
        assert isinstance(info.value, ValueError) and info.value.exit_code == 2

        class NeverElliptic:
            has_real = True
            dim_evanescent = 0

        # a spectrum that is never fully evanescent cannot be bracketed
        monkeypatch.setattr(boundary, "classify_spectrum", lambda a: NeverElliptic())
        with pytest.raises(GlancingLimit):
            tau_limit(iso, NU, EHAT)


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
