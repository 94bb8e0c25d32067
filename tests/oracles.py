"""Independent oracles used by the test suite.

Most are classical closed-form results implemented without reference to
the library internals, so agreement is a genuine cross-check.  The rest
are reference loops that a faster library path must reproduce exactly.
"""
import math

import numpy as np

from elaswave.boundary import (
    BISECTION_TOL,
    BoundarySide,
    _region,
    _sides,
    _surface_wave_bisect,
)
from elaswave.errors import GlancingLimit
from elaswave.factorization import BoundaryFrame


def rayleigh_secular_speed(lam: float, mu: float, rho: float,
                           tol: float = 1e-14) -> float:
    """Isotropic Rayleigh speed from the classical secular equation.

    Solves (2 - x^2)^2 = 4 sqrt(1 - x^2) sqrt(1 - kappa^2 x^2) for
    x = c_R/c_s with kappa = c_s/c_p, by bisection.
    """
    cs = math.sqrt(mu / rho)
    cp = math.sqrt((lam + 2.0 * mu) / rho)
    k2 = (cs / cp) ** 2

    def f(x):
        return (2.0 - x * x) ** 2 - 4.0 * math.sqrt(1.0 - x * x) * math.sqrt(
            1.0 - k2 * x * x)

    lo, hi = 0.5, 1.0 - 1e-12
    assert f(lo) < 0 < f(hi)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi) * cs


def cluster_sorted_mean_loop(vals: np.ndarray, tol: float) -> list[list[int]]:
    """Reference grouping of a sorted array: an entry joins the current group
    when it lies within tol of np.mean over the group's entries."""
    clusters = [[0]]
    for k in range(1, len(vals)):
        if abs(vals[k] - np.mean(vals[clusters[-1]])) <= tol:
            clusters[-1].append(k)
        else:
            clusters.append([k])
    return clusters


# Frozen value of rayleigh_secular_speed(1, 1, 1): the Poisson-solid
# (lambda = mu) Rayleigh speed in units of c_s.
C_R_POISSON = 0.9194016867619661


def sh_normal_reflection(mu_plus: float, rho_plus: float,
                         mu_minus: float, rho_minus: float) -> float:
    """|R| of a normally incident SH wave at a welded contrast interface.

    Classical shear-impedance formula R = (Z- - Z+)/(Z- + Z+) with
    Z = sqrt(mu rho).
    """
    zp = math.sqrt(mu_plus * rho_plus)
    zm = math.sqrt(mu_minus * rho_minus)
    return abs(zm - zp) / (zm + zp)


def isotropic_acoustic_tensor(lam: float, mu: float, xi: np.ndarray) -> np.ndarray:
    """(lam + mu) xi xi^T + mu |xi|^2 I, derived directly from the moduli."""
    xi = np.asarray(xi, dtype=float)
    return (lam + mu) * np.outer(xi, xi) + mu * float(xi @ xi) * np.eye(3)


# --- surface-wave scans with a fresh BoundarySide per probe -----------------
# These build the boundary polynomial afresh at every tau, so the
# library's scans, which share the tau-independent half of the polynomial,
# must give the same floats.

def tau_limit_fresh_sides(m, nu, eta_hat) -> float:
    def elliptic(t: float) -> bool:
        cls = BoundarySide(m, BoundaryFrame(nu, eta_hat, -t)).classification
        return (not cls.has_real) and cls.dim_evanescent == 3

    lo, hi = 0.0, 1.0
    for _ in range(200):
        if not elliptic(hi):
            break
        lo, hi = hi, 2.0 * hi
    else:
        raise GlancingLimit("no non-elliptic tau found")
    while lo == 0.0:
        if elliptic(hi / 2.0):
            lo = hi / 2.0
        else:
            hi /= 2.0
            if hi < 1e-12:
                raise GlancingLimit("could not bracket the elliptic limit")
    while hi - lo > BISECTION_TOL * hi:
        mid = 0.5 * (lo + hi)
        if elliptic(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def rayleigh_speed_fresh_sides(m, nu, eta_hat):
    def zfun(t: float) -> np.ndarray:
        return BoundarySide(m, BoundaryFrame(nu, eta_hat, -t)).z()

    return _surface_wave_bisect(zfun, tau_limit_fresh_sides(m, nu, eta_hat))


def stoneley_speed_fresh_sides(m_plus, m_minus, nu, eta_hat):
    tau_eta = min(tau_limit_fresh_sides(m_plus, nu, eta_hat),
                  tau_limit_fresh_sides(m_minus, nu, eta_hat))

    def zfun(t: float) -> np.ndarray:
        frame = BoundaryFrame(nu, eta_hat, -t)
        return (BoundarySide(m_plus, frame).z()
                + BoundarySide(m_minus, frame.flipped()).z())

    return _surface_wave_bisect(zfun, tau_eta)


# --- frame grids, one frame after another ------------------------------------

def classify_with_margin_per_frame(materials, frames) -> list:
    """(region, margin) of each frame by the loop that classify_with_margin
    ran before frames were solved as stacks: each frame's sides are built,
    classified, labelled and, off the elliptic region, factorized on their
    own, and the first frame that fails raises."""
    rows = []
    for frame in frames:
        sides = _sides(materials, frame)
        region = _region(sides)
        if region.label not in ("hyperbolic", "mixed"):
            rows.append((region, None))
            continue
        z = sum(side.z() for side in sides)
        sv = np.linalg.svd(z, compute_uv=False)
        rows.append((region, float(sv[-1] / max(sv[0], 1e-300))))
    return rows
