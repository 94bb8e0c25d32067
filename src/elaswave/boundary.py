"""Region classification, closed-form isotropic impedance, surface waves.

The boundary cotangent space splits into hyperbolic, mixed, and elliptic
regions according to the dimension of the evanescent subspace E_c of the
outgoing right root.  In the elliptic region the impedance is Hermitian
and its smallest eigenvalue decreases strictly in tau, which makes the
Rayleigh (and Stoneley) frequencies robust bisection targets.  Every
computation on one side of a boundary (polynomial, spectrum,
factorizations, impedances, projectors) goes through a `BoundarySide`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    GlancingLimit,
    GlancingSpectrum,
    InvalidInput,
    NoSurfaceWave,
)
from .factorization import (
    BoundaryFrame,
    SpectralFactorization,
    boundary_polynomial,
    classify_spectrum,
    factorize,
)
from .impedance import Impedance, ModeProjectors, impedance_from_factorization, mode_projectors
from .materials import Material, decompose_harmonic

ANGLE_TOL = 1e-8        # principal angles with cosine above 1 - ANGLE_TOL count as shared
BISECTION_TOL = 1e-10   # bisections stop at this width relative to the upper end
EDGE_OFFSET = 1e-6      # surface-wave brackets end this far, relatively, below tau_eta


@dataclass(frozen=True)
class RegionClass:
    """Region label with the evanescent dimensions behind it.

    For interfaces dim_intersection is dim(E_c+ and E_c-), measured by
    principal angles between the two evanescent subspaces.
    """

    label: str
    dim_ec: tuple
    dim_intersection: int | None = None

    @property
    def is_glancing(self) -> bool:
        return self.label == "glancing"


class BoundarySide:
    """One side of a boundary: a material seen from a frame.

    The boundary polynomial and its spectrum classification are computed
    at construction.  Each direction's factorization, impedance matrix and
    mode projectors are built from them on first use and kept for the
    object's lifetime, so both directions share one spectrum and every law
    or label built on the side shares its factorizations.
    """

    def __init__(self, m: Material, frame: BoundaryFrame):
        self.material = m
        self.frame = frame
        self.poly = boundary_polynomial(m, frame)
        self.classification = classify_spectrum(self.poly)
        self._built = {}

    def _once(self, key, build):
        if key not in self._built:
            self._built[key] = build()
        return self._built[key]

    def factorization(self, direction: str = "outgoing") -> SpectralFactorization:
        return self._once(("factorization", direction), lambda: factorize(
            self.poly, direction, classification=self.classification))

    def z(self, direction: str = "outgoing") -> np.ndarray:
        """Impedance matrix -i(A0 Q + A1) of the direction's factorization."""
        return self._once(("z", direction), lambda: impedance_from_factorization(
            self.poly, self.factorization(direction)).z)

    def projectors(self, direction: str = "outgoing") -> ModeProjectors:
        return self._once(("projectors", direction),
                          lambda: mode_projectors(self.factorization(direction)))


def _classify_sides(materials, frame: BoundaryFrame):
    """Region of a boundary or interface, with the BoundarySide of each side
    so that callers can factorize without solving again."""
    if isinstance(materials, Material):
        sides = (BoundarySide(materials, frame),)
    else:
        mp, mm = materials
        sides = (BoundarySide(mp, frame), BoundarySide(mm, frame.flipped()))
    dims = tuple(None if side.classification.glancing
                 else side.classification.dim_evanescent for side in sides)
    if None in dims:
        return RegionClass("glancing", dims), sides
    if len(sides) == 1:
        label = {0: "hyperbolic", 3: "elliptic"}.get(dims[0], "mixed")
        return RegionClass(label, dims), sides

    dim_p, dim_m = dims
    if dim_p == 0 or dim_m == 0:
        inter = 0
    elif dim_p == 3 and dim_m == 3:
        inter = 3
    else:
        bp, bm = (side.projectors().ec_basis() for side in sides)
        cos_angles = np.linalg.svd(bp.conj().T @ bm, compute_uv=False)
        inter = int(np.sum(cos_angles > 1.0 - ANGLE_TOL))
    if inter == 0:
        label = "hyperbolic"
    elif dim_p == 3 and dim_m == 3:
        label = "elliptic"
    else:
        label = "mixed"
    return RegionClass(label, dims, inter), sides


def classify(materials, frame: BoundaryFrame) -> RegionClass:
    """Region of a boundary (one material) or interface (two materials).

    Boundary: hyperbolic iff E_c = 0, elliptic iff E_c = E.  Interface:
    hyperbolic iff E_c+ and E_c- intersect trivially, elliptic iff both
    evanescent subspaces are full.
    """
    return _classify_sides(materials, frame)[0]


def _iso_moduli(m: Material, tol: float = 1e-8):
    h = decompose_harmonic(m.stiffness)
    aniso = (np.linalg.norm(h.a) + np.linalg.norm(h.b) + np.linalg.norm(h.h))
    if aniso > tol * max(m.stiffness.norm, 1e-300):
        raise InvalidInput("material is not isotropic")
    return h.lam, h.mu


def _outgoing_root(c2: float, rho: float, eta2: float, tau: float,
                   glancing_tol: float = 1e-10) -> complex:
    """Outgoing root of c2(s^2 + eta^2) = rho tau^2 for one wave family."""
    disc = rho * tau * tau / c2 - eta2
    scale = max(abs(rho * tau * tau / c2), eta2, 1.0)
    if abs(disc) <= glancing_tol * scale:
        raise GlancingSpectrum("closed-form root at the glancing transition")
    if disc > 0:
        return float(np.copysign(np.sqrt(disc), -tau))
    return 1j * float(np.sqrt(-disc))


def iso_impedance_closed_form(m: Material, frame: BoundaryFrame) -> Impedance:
    """Outgoing impedance of an isotropic material in SH-SV-P closed form.

    The matrix is assembled from its action on the decoupled SH vector and
    the two coupled SV/P columns, then expressed in the standard basis.
    """
    lam, mu = _iso_moduli(m)
    rho, tau = m.density, frame.tau
    nu, eta = frame.nu, frame.eta
    eta2 = float(eta @ eta)
    s_s = _outgoing_root(mu, rho, eta2, tau)
    s_p = _outgoing_root(lam + 2.0 * mu, rho, eta2, tau)

    if eta2 == 0.0:
        nn = np.outer(nu, nu)
        z = -1j * (mu * s_s * (np.eye(3) - nn) + (lam + 2.0 * mu) * s_p * nn)
        return Impedance(z, "outgoing", frame)

    s_tilde = -eta2 / s_s
    zeta = np.cross(nu, eta) / np.sqrt(eta2)
    basis = np.column_stack([
        zeta.astype(complex),
        eta + s_tilde * nu,
        eta + s_p * nu,
    ])
    images = np.column_stack([
        mu * s_s * zeta,
        mu * (s_s + s_tilde) * eta - 2.0 * mu * eta2 * nu,
        2.0 * mu * s_p * eta + (rho * tau * tau - 2.0 * mu * eta2) * nu,
    ])
    z = -1j * images @ np.linalg.inv(basis)
    return Impedance(z, "outgoing", frame)


def tau_limit(m: Material, nu: np.ndarray, eta_hat: np.ndarray) -> float:
    """Largest tau with a fully evanescent spectrum, by bisection.

    For isotropic media this is c_s |eta|; in general it is the limiting
    velocity of the slowest family along (nu, eta_hat).
    """
    eta_hat = np.asarray(eta_hat, dtype=float)
    if abs(np.linalg.norm(eta_hat) - 1.0) > 1e-10:
        raise InvalidInput("eta_hat must be a unit vector")

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


@dataclass(frozen=True)
class RayleighResult:
    """Surface-wave frequency along a unit tangential covector."""

    tau_r: float
    slowness: float              # |eta| / tau_r
    polarization: np.ndarray     # null vector of z (or z+ + z-) at tau_r
    tau_eta: float
    bracket: tuple
    det_residual: float          # |det z| / ||z||^3 at the root


def _lambda_min(zmat: np.ndarray):
    h = 0.5 * (zmat + zmat.conj().T)
    vals, vecs = np.linalg.eigh(h)
    return float(vals[0]), vecs[:, 0]


def _surface_wave_bisect(zfun, tau_eta: float) -> RayleighResult:
    t_lo = 1e-3 * tau_eta
    t_hi = (1.0 - EDGE_OFFSET) * tau_eta
    try:
        f_lo, _ = _lambda_min(zfun(t_lo))
        f_hi, _ = _lambda_min(zfun(t_hi))
    except GlancingSpectrum as exc:
        raise GlancingLimit(f"cannot evaluate near tau_eta: {exc}") from exc
    if f_lo <= 0:
        raise GlancingLimit("impedance not positive definite at the low endpoint")
    if f_hi > 0:
        raise NoSurfaceWave("smallest impedance eigenvalue stays positive "
                            "on the elliptic interval")
    lo, hi = t_lo, t_hi
    while hi - lo > BISECTION_TOL * hi:
        mid = 0.5 * (lo + hi)
        fm, _ = _lambda_min(zfun(mid))
        if fm > 0:
            lo = mid
        else:
            hi = mid
    tau_r = 0.5 * (lo + hi)
    zr = zfun(tau_r)
    _, vec = _lambda_min(zr)
    det_res = float(abs(np.linalg.det(zr)) / max(np.linalg.norm(zr) ** 3, 1e-300))
    return RayleighResult(tau_r, 1.0 / tau_r, vec, tau_eta, (t_lo, t_hi), det_res)


def rayleigh_speed(m: Material, nu: np.ndarray, eta_hat: np.ndarray) -> RayleighResult:
    """Free-surface (Rayleigh) frequency: the zero of lambda_min(z).

    lambda_min decreases strictly in tau on the elliptic interval, so the
    sign change, when present, has a unique root.
    """
    tau_eta = tau_limit(m, nu, eta_hat)

    def zfun(t: float) -> np.ndarray:
        return BoundarySide(m, BoundaryFrame(nu, eta_hat, -t)).z()

    return _surface_wave_bisect(zfun, tau_eta)


def stoneley_speed(m_plus: Material, m_minus: Material, nu: np.ndarray,
                   eta_hat: np.ndarray) -> RayleighResult:
    """Interface (Stoneley) frequency: the zero of lambda_min(z+ + z-)."""
    tau_eta = min(tau_limit(m_plus, nu, eta_hat),
                  tau_limit(m_minus, nu, eta_hat))

    def zfun(t: float) -> np.ndarray:
        frame = BoundaryFrame(nu, eta_hat, -t)
        return (BoundarySide(m_plus, frame).z()
                + BoundarySide(m_minus, frame.flipped()).z())

    return _surface_wave_bisect(zfun, tau_eta)


def classify_with_margin(materials, frame: BoundaryFrame):
    """Region of a frame and, off the elliptic region, sigma_min(z)/||z||.

    For material pairs z is replaced by z+ + z-.  The margin is None on
    elliptic and glancing frames.  Each side's spectrum is solved once and
    serves both the label and the impedance.
    """
    region, sides = _classify_sides(materials, frame)
    if region.label not in ("hyperbolic", "mixed"):
        return region, None
    z = sum(side.z() for side in sides)
    sv = np.linalg.svd(z, compute_uv=False)
    return region, float(sv[-1] / max(sv[0], 1e-300))


def ellipticity_margin(materials, frames) -> tuple[float, list]:
    """Minimum sigma_min(z)/||z|| over non-elliptic, non-glancing frames.

    For material pairs z is replaced by z+ + z-.  Returns the margin and
    per-frame rows (frame, label, normalized sigma_min).
    """
    rows = []
    margin = np.inf
    for frame in frames:
        region, val = classify_with_margin(materials, frame)
        if val is None:
            continue
        margin = min(margin, val)
        rows.append((frame, region.label, val))
    return margin, rows
