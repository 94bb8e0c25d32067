"""Acceptance suite: twelve property-based criteria with independent oracles.

Each test prints a single PASS line on success (run with `pytest -s` to see
them inline); a failed assertion marks the criterion FAIL via pytest.
"""
import json

import numpy as np

from elaswave.acoustic import eigen_gap_scan
from elaswave.boundary import (
    ellipticity_margin,
    iso_impedance_closed_form,
    rayleigh_speed,
)
from elaswave.errors import ContourTooClose
from elaswave.factorization import (
    BoundaryFrame,
    boundary_polynomial,
    contour_root_check,
    factorization_residual,
    factorize,
    stroh,
)
from elaswave.impedance import (
    barnett_lothe_impedance,
    flux_form,
    impedance_from_factorization,
    impedance_tau_derivative,
    modal_flux_decomposition,
    mode_projectors,
)
from elaswave.layered import LayerStack, leaf_flux, trace_plane_wave
from elaswave.materials import make_isotropic
from elaswave.scatter import incoming_mode, reflect_free_surface, transmit_interface

from conftest import NU, sample_frames
from oracles import C_R_POISSON, rayleigh_secular_speed, sh_normal_reflection

ETA = np.array([1.0, 0.0, 0.0])


def report(n, text):
    print(f"PASS criterion {n}: {text}")


class TestAcceptance:
    def test_01_factorization_residual(self, iso, ti):
        rng = np.random.default_rng(101)
        worst_res, worst_gap = 0.0, np.inf
        count = 0
        for mat in (iso, ti):
            buckets = sample_frames(mat, rng, 25)   # 25 x 3 regions x 2 materials
            for frames in buckets.values():
                for fr in frames:
                    a = boundary_polynomial(mat, fr)
                    f = factorize(a, "outgoing")
                    s_samples = rng.standard_normal(10) + 1j * rng.standard_normal(10)
                    worst_res = max(worst_res, f.solvency_residual,
                                    factorization_residual(f, s_samples))
                    eq = np.linalg.eigvals(f.q)
                    es = np.linalg.eigvals(f.q_sharp)
                    scale = max(np.max(np.abs(eq)), np.max(np.abs(es)))
                    gap = np.min(np.abs(eq[:, None] - es[None, :])) / scale
                    worst_gap = min(worst_gap, gap)
                    count += 1
        assert count == 150
        assert worst_res <= 1e-9
        assert worst_gap > 1e-6
        report(1, f"factorization residual <= {worst_res:.2e} over {count} "
                  f"frames, spectral gap >= {worst_gap:.2e}")

    def test_02_contour_oracle(self, iso, ti):
        rng = np.random.default_rng(102)
        worst = 0.0
        done = {"elliptic": 0, "mixed": 0}
        for mat in (iso, ti):
            buckets = sample_frames(mat, rng, 40, regions=("elliptic", "mixed"))
            for label, frames in buckets.items():
                for fr in frames:
                    if done[label] >= 25 + (25 if mat is ti else 0):
                        break
                    a = boundary_polynomial(mat, fr)
                    f = factorize(a, "outgoing")
                    qvals = np.linalg.eigvals(f.q)
                    targets = qvals[np.abs(qvals.imag) > 1e-6 * (1 + np.abs(qvals).max())]
                    center = complex(np.mean(targets))
                    spread = float(np.max(np.abs(targets - center)))
                    all_vals = np.linalg.eigvals(stroh(a))
                    others = [v for v in all_vals
                              if np.min(np.abs(v - targets)) > 1e-8 * (1 + abs(v))]
                    clearance = min(abs(v - center) for v in others)
                    radius = 0.5 * (spread + clearance)
                    try:
                        res, info = contour_root_check(a, f.q, center, radius)
                    except ContourTooClose:
                        continue
                    assert info["enclosed_rank"] == len(targets)
                    worst = max(worst, res)
                    done[label] += 1
        assert done["elliptic"] >= 50 and done["mixed"] >= 50
        assert worst <= 1e-8
        report(2, f"Schur Q matches contour integrals on E_c to {worst:.2e} "
                  f"({done['elliptic']} elliptic, {done['mixed']} mixed frames)")

    def test_03_closed_form_isotropic(self, iso):
        worst = 0.0
        count = 0
        taus = [-0.25, -0.55, -0.85, -1.15, -1.45, -1.75, -2.15, -2.55,
                -2.95, 0.35, 0.65, 1.25, 1.65, 2.35, 2.85]
        for ang in np.linspace(0.0, 2 * np.pi, 20, endpoint=False):
            eta = np.array([np.cos(ang), np.sin(ang), 0.0])
            for tau in taus:
                fr = BoundaryFrame(NU, eta, tau)
                a = boundary_polynomial(iso, fr)
                zf = impedance_from_factorization(a, factorize(a, "outgoing")).z
                zc = iso_impedance_closed_form(iso, fr).z
                worst = max(worst, np.linalg.norm(zc - zf) / np.linalg.norm(zf))
                count += 1
        assert count == 300
        assert worst <= 1e-10
        report(3, f"closed-form isotropic impedance matches factorization "
                  f"to {worst:.2e} on a {count}-point grid")

    def test_04_flux_sign_law(self, iso, ti):
        rng = np.random.default_rng(104)
        checked = 0
        for mat in (iso, ti):
            buckets = sample_frames(mat, rng, 2)
            for frames in buckets.values():
                for fr in frames:
                    a = boundary_polynomial(mat, fr)
                    f = factorize(a, "outgoing")
                    z = impedance_from_factorization(a, f)
                    pr = mode_projectors(f)
                    pi_r = pr.pi_r
                    scale = abs(fr.tau) * np.linalg.norm(z.z)
                    for _ in range(1000):
                        u = rng.standard_normal(3) + 1j * rng.standard_normal(3)
                        unorm2 = float(np.vdot(u, u).real)
                        val = flux_form(z, fr.tau, u)
                        assert val >= -1e-9 * scale * unorm2
                        if np.linalg.norm(pi_r @ u) >= 0.1 * np.sqrt(unorm2):
                            assert val > 1e-6 * scale * unorm2
                        checked += 1
        report(4, f"flux sign law held for all {checked} random vectors")

    def test_05_modal_flux_identity(self, iso, ti):
        rng = np.random.default_rng(105)
        worst = 0.0
        pairs = 0
        for mat in (iso, ti):
            buckets = sample_frames(mat, rng, 9)
            for frames in buckets.values():
                for fr in frames:
                    a = boundary_polynomial(mat, fr)
                    f = factorize(a, "outgoing")
                    for _ in range(10):
                        u = rng.standard_normal(3) + 1j * rng.standard_normal(3)
                        res = modal_flux_decomposition(a, f, u)
                        worst = max(worst, res.residual)
                        pairs += 1
        assert pairs >= 500
        assert worst <= 1e-9
        report(5, f"modal flux identity residual <= {worst:.2e} over "
                  f"{pairs} (frame, u) pairs")

    def test_06_barnett_lothe(self, iso, ti):
        rng = np.random.default_rng(106)
        worst = 0.0
        count = 0
        for mat in (iso, ti):
            frames = sample_frames(mat, rng, 25, regions=("elliptic",))["elliptic"]
            for fr in frames:
                a = boundary_polynomial(mat, fr)
                zf = impedance_from_factorization(a, factorize(a, "outgoing")).z
                zb = barnett_lothe_impedance(a).z
                worst = max(worst, np.linalg.norm(zb - zf) / np.linalg.norm(zf))
                re_part = 0.5 * (zb.real + zb.real.T)
                assert np.linalg.eigvalsh(re_part)[0] > 0
                count += 1
        assert count == 50
        assert worst <= 1e-6
        report(6, f"Barnett-Lothe impedance matches factorization to "
                  f"{worst:.2e} with Re Z > 0 on {count} elliptic frames")

    def test_07_monotonicity(self, iso, ti):
        rng = np.random.default_rng(107)
        worst_fd = 0.0
        count = 0
        for mat in (iso, ti):
            frames = sample_frames(mat, rng, 25, regions=("elliptic",))["elliptic"]
            for fr in frames:
                a = boundary_polynomial(mat, fr)
                f = factorize(a, "outgoing")
                zdot = impedance_tau_derivative(a, f, check_fd=False)
                assert np.linalg.eigvalsh(zdot)[-1] < 0
                # independent finite-difference oracle
                t0 = fr.tau ** 2
                dt = 1e-5 * t0
                zs = []
                for sg in (+1.0, -1.0):
                    ap = a.with_a2(a.a2 - mat.density * sg * dt * np.eye(3))
                    zs.append(impedance_from_factorization(
                        ap, factorize(ap, "outgoing", tau=fr.tau)).z)
                fd = (zs[0] - zs[1]) / (2 * dt)
                rel = np.linalg.norm(zdot - fd) / np.linalg.norm(zdot)
                worst_fd = max(worst_fd, rel)
                count += 1
        assert count == 50
        assert worst_fd <= 1e-5
        report(7, f"dZ/d(tau^2) negative definite on {count} elliptic frames, "
                  f"FD agreement {worst_fd:.2e}")

    def test_08_rayleigh_speed(self, poisson):
        res = rayleigh_speed(poisson, NU, ETA)
        oracle = rayleigh_secular_speed(1.0, 1.0, 1.0)
        assert abs(res.tau_r - C_R_POISSON) <= 1e-4
        assert abs(res.tau_r - oracle) <= 1e-8
        assert res.det_residual <= 1e-8
        report(8, f"Poisson-solid c_R = {res.tau_r:.6f} "
                  f"(secular oracle {oracle:.6f}, det residual "
                  f"{res.det_residual:.2e})")

    def test_09_ellipticity_margins(self, iso, hard):
        hyp = [BoundaryFrame(NU, ETA, t) for t in np.linspace(-4.2, -2.05, 100)]
        mix = [BoundaryFrame(NU, ETA, t) for t in np.linspace(-1.95, -1.05, 100)]
        m_hyp, rows_h = ellipticity_margin(iso, hyp)
        m_mix, rows_m = ellipticity_margin(iso, mix)
        assert len(rows_h) == 100 and all(l == "hyperbolic" for _, l, _ in rows_h)
        assert len(rows_m) == 100 and all(l == "mixed" for _, l, _ in rows_m)
        assert m_hyp > 1e-3 and m_mix > 1e-3
        frames = [BoundaryFrame(NU, ETA, t) for t in np.linspace(-4.5, -1.2, 100)]
        m_int, rows_i = ellipticity_margin((iso, hard), frames)
        assert rows_i and m_int > 1e-3
        report(9, f"margins: boundary hyperbolic {m_hyp:.3f}, mixed "
                  f"{m_mix:.3f}, interface {m_int:.3f}")

    def test_10_scattering_sanity(self, iso):
        # fictitious interface
        results = []
        for tau in (-2.5, -1.4):
            fr = BoundaryFrame(NU, ETA, tau)
            inc = incoming_mode(iso, fr, 0)
            r = transmit_interface(iso, iso, fr, inc)
            g = np.linalg.norm(inc.g)
            assert np.linalg.norm(r.sides["+"].trace) <= 1e-10 * g
            assert np.linalg.norm(r.sides["-"].trace - inc.g) <= 1e-10 * g
            results.append(r)
        # normal-incidence SH against the classical contrast formula
        other = make_isotropic(3.0, 4.0, 2.0)
        fr0 = BoundaryFrame(NU, np.zeros(3), -1.0)
        inc = incoming_mode(iso, fr0, 0)
        r = transmit_interface(iso, other, fr0, inc)
        refl = max(np.linalg.norm(v) for v in r.sides["+"].amplitudes.values())
        classical = sh_normal_reflection(1.0, 1.0, 4.0, 2.0)
        assert abs(refl / np.linalg.norm(inc.g) - classical) <= 1e-10
        results.append(r)
        # free-surface results across regions
        for tau in (-2.7, -1.6, 2.4, 1.5):
            fr = BoundaryFrame(NU, ETA, tau)
            results.append(reflect_free_surface(iso, fr,
                                                incoming_mode(iso, fr, 0)))
        worst = max(res.balance_residual for res in results)
        assert worst <= 1e-8
        report(10, f"fictitious interface exact to 1e-10, SH contrast matches "
                   f"classical |R| = {classical:.6f}, energy balance "
                   f"residual <= {worst:.2e}")

    def test_11_simulator(self):
        soft = make_isotropic(2.0, 1.0, 1.0, "soft")
        rigid = make_isotropic(800.0, 400.0, 100.0, "rigid")
        stack = LayerStack(((soft, 1.0),), rigid)
        tree = trace_plane_wave(stack, (0.0, 0.0), -1.0, max_events=24)
        t_primary = tree.arrivals[0][0]
        assert abs(t_primary - 2.0) <= 1e-9 * 2.0
        assert leaf_flux(tree) <= tree.source_flux + 1e-6
        d1 = json.dumps(tree.to_dict(), sort_keys=True)
        d2 = json.dumps(trace_plane_wave(stack, (0.0, 0.0), -1.0,
                                         max_events=24).to_dict(),
                        sort_keys=True)
        assert d1 == d2
        report(11, f"primary reflection at t = {t_primary:.12f} (2 d / c_s), "
                   f"leaf flux {leaf_flux(tree):.9f} <= source, reruns "
                   f"byte-identical")

    def test_12_ti_perturbation(self, ti):
        gap, rows = eigen_gap_scan(ti, 500,
                                   exclude_axis=np.array([0.0, 0.0, 1.0]),
                                   exclude_angle_deg=5.0)
        assert rows
        assert gap > 0.0
        report(12, f"TI Christoffel gap > 0 (min {gap:.3e}) on "
                   f"{len(rows)} directions >= 5 degrees off axis")
