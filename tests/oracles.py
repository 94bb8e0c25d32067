"""Independent oracles used by the test suite.

These are classical closed-form results implemented without reference to
the library internals, so agreement is a genuine cross-check.
"""
import math

import numpy as np


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
