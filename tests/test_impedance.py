from types import SimpleNamespace

import numpy as np
import pytest

from elaswave.errors import RealSpectrumPresent
from elaswave.factorization import BoundaryFrame, boundary_polynomial, factorize
from elaswave.impedance import (
    barnett_lothe_impedance,
    flux_form,
    impedance_from_factorization,
    impedance_tau_derivative,
    modal_flux_decomposition,
    _mode_projectors,
    mode_projectors,
)

from conftest import NU, sample_frames

ETA = np.array([1.0, 0.0, 0.0])


def setup_frame(mat, tau):
    a = boundary_polynomial(mat, BoundaryFrame(NU, ETA, tau))
    f = factorize(a, "outgoing")
    return a, f, impedance_from_factorization(a, f)


class TestImpedance:
    def test_definition(self, iso):
        a, f, z = setup_frame(iso, -0.7)
        assert np.allclose(z.z, -1j * (a.a0 @ f.q + a.a1), atol=1e-12)

    def test_sh_entry_elliptic(self, iso):
        # SH vector perpendicular to span(nu, eta): iz zeta = s_s mu zeta
        a, f, z = setup_frame(iso, -0.5)
        zeta = np.array([0.0, 1.0, 0.0])
        s_s = 1j * np.sqrt(1.0 - 0.25)   # mu = 1, rho = 1
        assert np.allclose(1j * z.z @ zeta, s_s * zeta, atol=1e-12)

    def test_positive_definite_small_tau(self, iso, ti):
        for mat in (iso, ti):
            _, _, z = setup_frame(mat, -1e-4)
            h = 0.5 * (z.z + z.z.conj().T)
            assert np.linalg.eigvalsh(h)[0] > 0

    def test_hermitian_on_ec(self, iso, ti):
        rng = np.random.default_rng(11)
        for mat in (iso, ti):
            for frames in sample_frames(mat, rng, 3).values():
                for fr in frames:
                    a = boundary_polynomial(mat, fr)
                    f = factorize(a, "outgoing")
                    z = impedance_from_factorization(a, f)
                    basis = mode_projectors(f).ec_basis()
                    assert z.hermiticity_residual(basis) < 1e-9

    def test_kernel_inside_ec(self, iso):
        # sigma_min of z restricted to E_r stays away from zero
        rng = np.random.default_rng(13)
        buckets = sample_frames(iso, rng, 5, regions=("hyperbolic", "mixed"))
        for frames in buckets.values():
            for fr in frames:
                a = boundary_polynomial(iso, fr)
                f = factorize(a, "outgoing")
                z = impedance_from_factorization(a, f)
                pr = mode_projectors(f)
                basis = np.linalg.svd(pr.pi_r)[0][:, :pr.dim_er]
                restricted = z.z @ basis
                sv = np.linalg.svd(restricted, compute_uv=False)
                assert sv[-1] > 1e-6 * np.linalg.norm(z.z)


class TestModeProjectors:
    def test_projector_algebra(self, iso, ti):
        rng = np.random.default_rng(5)
        for mat in (iso, ti):
            for frames in sample_frames(mat, rng, 2).values():
                for fr in frames:
                    f = factorize(boundary_polynomial(mat, fr), "outgoing")
                    pr = mode_projectors(f)
                    total = pr.pi_c.copy()
                    for s, p in pr.psi.items():
                        assert np.linalg.norm(p @ p - p) < 1e-9
                        assert np.linalg.norm(p @ f.q - f.q @ p) < 1e-9 * (
                            1 + np.linalg.norm(f.q))
                        for s2, p2 in pr.psi.items():
                            if s2 != s:
                                assert np.linalg.norm(p @ p2) < 1e-9
                        total = total + p
                    assert np.linalg.norm(total - np.eye(3)) < 1e-9

    def test_stack_matches_alone(self, iso, ti):
        # One stack of factorizations from all three regions, both
        # directions, so with two and three clusters of eig(Q), gives each,
        # bit for bit, the projectors it gets alone.
        rng = np.random.default_rng(23)
        facts = [factorize(boundary_polynomial(mat, fr), direction)
                 for mat in (iso, ti) for frames in sample_frames(mat, rng, 3).values()
                 for fr in frames for direction in ("outgoing", "incoming")]
        stacked = _mode_projectors(facts)
        kinds = set()
        for f, got in zip(facts, stacked):
            alone = mode_projectors(f)
            kinds.add((len(got.psi), got.dim_ec))
            assert list(got.psi) == list(alone.psi)
            for mine, theirs in zip([got.pi_c, *got.psi.values()],
                                    [alone.pi_c, *alone.psi.values()]):
                assert mine.dtype == theirs.dtype and mine.tobytes() == theirs.tobytes()
            assert (got.dim_ec, got.dim_er) == (alone.dim_ec, alone.dim_er)
        # (real modes, dim E_c): hyperbolic, mixed with one or two real
        # modes, and elliptic
        assert {(3, 0), (0, 3)} <= kinds and len(kinds) >= 4

    def test_one_cluster(self):
        # A triple eigenvalue is one cluster, whose projector is I.
        q = 1.5 * np.eye(3, dtype=complex)
        f = SimpleNamespace(q=q, q_spectrum=np.linalg.eigvals(q))
        (pr,) = _mode_projectors([f])
        assert list(pr.psi) == [1.5] and (pr.dim_ec, pr.dim_er) == (0, 3)
        assert pr.psi[1.5].dtype == complex and np.array_equal(pr.psi[1.5], np.eye(3))

    def test_region_dimensions(self, iso):
        for tau, (dim_er, dim_ec) in ((-2.5, (3, 0)), (-1.5, (2, 1)),
                                      (-0.5, (0, 3))):
            f = factorize(boundary_polynomial(
                iso, BoundaryFrame(NU, ETA, tau)), "outgoing")
            pr = mode_projectors(f)
            assert (pr.dim_er, pr.dim_ec) == (dim_er, dim_ec)
            if dim_ec == 3:
                assert np.allclose(pr.pi_c, np.eye(3), atol=1e-9)


class TestFluxForm:
    def test_nonnegative_outgoing(self, iso, ti):
        rng = np.random.default_rng(17)
        for mat in (iso, ti):
            for frames in sample_frames(mat, rng, 2).values():
                for fr in frames:
                    a = boundary_polynomial(mat, fr)
                    z = impedance_from_factorization(a, factorize(a, "outgoing"))
                    scale = abs(fr.tau) * np.linalg.norm(z.z)
                    for _ in range(100):
                        u = rng.standard_normal(3) + 1j * rng.standard_normal(3)
                        val = flux_form(z, fr.tau, u)
                        assert val >= -1e-9 * scale * float(np.vdot(u, u).real)

    def test_zero_on_ec(self, iso):
        a, f, z = setup_frame(iso, -1.5)
        pr = mode_projectors(f)
        rng = np.random.default_rng(19)
        u = pr.pi_c @ (rng.standard_normal(3) + 1j * rng.standard_normal(3))
        scale = abs(a.frame.tau) * np.linalg.norm(z.z) * float(np.vdot(u, u).real)
        assert abs(flux_form(z, a.frame.tau, u)) < 1e-9 * scale

    def test_zero_vector(self, iso):
        _, _, z = setup_frame(iso, -1.5)
        assert flux_form(z, -1.5, np.zeros(3)) == 0.0


class TestModalFluxIdentity:
    def test_identity_random(self, iso, ti):
        rng = np.random.default_rng(23)
        for mat in (iso, ti):
            for frames in sample_frames(mat, rng, 2).values():
                for fr in frames:
                    a = boundary_polynomial(mat, fr)
                    f = factorize(a, "outgoing")
                    for _ in range(5):
                        u = rng.standard_normal(3) + 1j * rng.standard_normal(3)
                        res = modal_flux_decomposition(a, f, u)
                        assert res.residual < 1e-9

    def test_single_mode(self, iso):
        a, f, z = setup_frame(iso, -2.5)
        pr = mode_projectors(f)
        s = sorted(pr.psi)[0]
        rng = np.random.default_rng(29)
        u = pr.psi[s] @ (rng.standard_normal(3) + 1j * rng.standard_normal(3))
        res = modal_flux_decomposition(a, f, u, pr, z)
        others = [abs(v) for k, v in res.per_mode.items() if k != s]
        assert max(others) < 1e-9 * max(abs(res.per_mode[s]), 1.0)
        assert res.lhs == pytest.approx(2.0 * res.per_mode[s], abs=1e-9)


class TestBarnettLothe:
    def test_matches_factorization(self, iso, ti):
        rng = np.random.default_rng(31)
        for mat in (iso, ti):
            frames = sample_frames(mat, rng, 4, regions=("elliptic",))["elliptic"]
            for fr in frames:
                a = boundary_polynomial(mat, fr)
                z_fact = impedance_from_factorization(a, factorize(a, "outgoing"))
                z_bl = barnett_lothe_impedance(a)
                assert (np.linalg.norm(z_bl.z - z_fact.z)
                        / np.linalg.norm(z_fact.z)) < 1e-6

    def test_re_z_positive_definite(self, iso):
        a = boundary_polynomial(iso, BoundaryFrame(NU, ETA, -0.6))
        z = barnett_lothe_impedance(a)
        assert np.linalg.eigvalsh(z.z.real + z.z.real.T)[0] > 0

    def test_rejects_real_spectrum(self, iso):
        a = boundary_polynomial(iso, BoundaryFrame(NU, ETA, -1.5))
        with pytest.raises(RealSpectrumPresent):
            barnett_lothe_impedance(a)


class TestTauDerivative:
    def test_negative_definite_and_fd(self, iso, ti):
        rng = np.random.default_rng(37)
        for mat in (iso, ti):
            frames = sample_frames(mat, rng, 3, regions=("elliptic",))["elliptic"]
            for fr in frames:
                a = boundary_polynomial(mat, fr)
                f = factorize(a, "outgoing")
                zdot = impedance_tau_derivative(a, f)   # FD check inside
                assert np.linalg.eigvalsh(zdot)[-1] < 0

    def test_zero_a2dot(self, iso):
        # with rho = 0 in the Lyapunov right side the derivative vanishes
        a = boundary_polynomial(iso, BoundaryFrame(NU, ETA, -0.5))
        f = factorize(a, "outgoing")
        zdot = impedance_tau_derivative(a, f, rho=0.0, check_fd=False)
        assert np.linalg.norm(zdot) < 1e-12

    def test_rejects_real_spectrum(self, iso):
        a = boundary_polynomial(iso, BoundaryFrame(NU, ETA, -1.5))
        f = factorize(a, "outgoing")
        with pytest.raises(RealSpectrumPresent):
            impedance_tau_derivative(a, f)
