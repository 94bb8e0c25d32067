"""Surface impedance tensors and their structural cross-checks.

The impedance z = -i(A0 Q + A1) maps boundary displacement traces to
traction traces (principal Dirichlet-to-Neumann symbol).  This module
builds it from a spectral factorization, splits vectors into propagating
and evanescent modal components, evaluates energy-flux forms, and provides
two independent routes to the same object on elliptic frames: the
Barnett-Lothe integral formula and the Lyapunov equation for dZ/d(tau^2).

Inner-product convention: (a|b) = sum_i a_i conj(b_i), i.e. np.vdot(b, a).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .acoustic import cluster_sorted
from .errors import (
    CrossCheckFailed,
    InvalidInput,
    NearDefectiveQ,
    QuadratureNotConverged,
    RealSpectrumPresent,
)
from .factorization import (
    GROUPING_TOL,
    BoundaryFrame,
    QuadraticMatrixPolynomial,
    SpectralFactorization,
    classify_spectrum,
    factorize,
)


@dataclass(frozen=True)
class Impedance:
    """Boundary impedance z tagged with the frame and direction it came from."""

    z: np.ndarray
    direction: str
    frame: BoundaryFrame | None = None

    def hermiticity_residual(self, subspace: np.ndarray | None = None) -> float:
        """Relative defect of z = z* on a subspace (columns span it)."""
        if subspace is not None and subspace.shape[1] == 0:
            return 0.0
        if subspace is None:
            m = self.z
        else:
            q, _ = np.linalg.qr(subspace)
            m = q.conj().T @ self.z @ q
        return float(np.linalg.norm(m - m.conj().T) /
                     max(np.linalg.norm(self.z), 1e-300))


def impedance_from_factorization(a: QuadraticMatrixPolynomial,
                                 f: SpectralFactorization) -> Impedance:
    """z = -i(A0 Q + A1), tagged with the factorization's direction."""
    z = -1j * (a.a0 @ f.q + a.a1)
    return Impedance(z, f.direction, a.frame)


@dataclass(frozen=True)
class ModeProjectors:
    """Spectral projectors of the right root Q.

    psi maps each real eigenvalue to its (generally oblique) projector;
    pi_c projects onto the evanescent subspace E_c.  The projectors commute
    with Q and sum to the identity.
    """

    psi: dict
    pi_c: np.ndarray
    dim_ec: int
    dim_er: int
    q: np.ndarray = field(repr=False, default=None)

    @property
    def pi_r(self) -> np.ndarray:
        return np.eye(3) - self.pi_c

    def ec_basis(self) -> np.ndarray:
        """Orthonormal columns spanning E_c = range(pi_c)."""
        u, sv, _ = np.linalg.svd(self.pi_c)
        k = int(np.sum(sv > 0.5))
        return u[:, :k]


def mode_projectors(f: SpectralFactorization) -> ModeProjectors:
    """Lagrange spectral projectors per eigenvalue cluster of Q."""
    q = f.q
    vals = f.q_spectrum
    norm = max(float(np.max(np.abs(vals))), 1e-300)
    tol = GROUPING_TOL * (1.0 + norm)

    vals = vals[np.argsort(vals.real + 1e-9 * vals.imag)]
    clusters = cluster_sorted(vals, 100 * tol)
    means = [complex(mean) for _, mean in clusters]

    eye = np.eye(3, dtype=complex)
    projectors = []
    for j, mj in enumerate(means):
        p = eye.copy()
        for k, mk in enumerate(means):
            if k != j:
                p = p @ (q - mk * eye) / (mj - mk)
        projectors.append(p)

    psi = {}
    pi_c = np.zeros((3, 3), dtype=complex)
    dim_ec = 0
    for (idx, _), mean, p in zip(clusters, means, projectors):
        if abs(mean.imag) <= tol:
            psi[float(mean.real)] = p
        else:
            pi_c = pi_c + p
            dim_ec += len(idx)
    return ModeProjectors(psi, pi_c, dim_ec, 3 - dim_ec, q)


def flux_form(z: Impedance | np.ndarray, tau: float, u: np.ndarray) -> float:
    """Outgoing energy flux -tau Im(u|zu) carried by a boundary trace u."""
    zm = z.z if isinstance(z, Impedance) else z
    return float(-tau * np.imag(np.vdot(zm @ u, u)))


@dataclass(frozen=True)
class ModalFluxes:
    """Both sides of the flux identity 2 Im(u|Zu) = sum_s (A'(s)u_s|u_s)."""

    per_mode: dict          # real eigenvalue -> (A'(s)u_s|u_s)/2
    evanescent: np.ndarray  # pi_c u
    lhs: float              # 2 Im(u|Zu)
    residual: float


def modal_flux_decomposition(a: QuadraticMatrixPolynomial,
                             f: SpectralFactorization, u: np.ndarray,
                             projectors: ModeProjectors | None = None,
                             z: Impedance | None = None,
                             tol: float = 1e-9) -> ModalFluxes:
    """Split u by mode and verify the modal flux identity."""
    if projectors is None:
        projectors = mode_projectors(f)
    if z is None:
        z = impedance_from_factorization(a, f)
    u = np.asarray(u, dtype=complex)
    per_mode = {}
    total = 0.0
    for s, p in projectors.psi.items():
        us = p @ u
        val = 0.5 * float(np.real(np.vdot(us, a.derivative(s) @ us)))
        per_mode[s] = val
        total += val
    lhs = 2.0 * float(np.imag(np.vdot(z.z @ u, u)))
    scale = max(np.linalg.norm(z.z) * float(np.vdot(u, u).real),
                a.scale * float(np.vdot(u, u).real), 1e-300)
    residual = abs(lhs - 2.0 * total) / scale
    if residual > tol:
        raise CrossCheckFailed(
            f"modal flux identity residual {residual:g} exceeds {tol:g}")
    return ModalFluxes(per_mode, projectors.pi_c @ u, lhs, residual)


# --- Barnett-Lothe integral route (elliptic frames) ------------------------

def _bl_integrals(a: QuadraticMatrixPolynomial, n: int):
    """Gauss-Legendre tan-substitution integrals over the real line.

    Nodes come in +-s pairs so the principal value of the odd O(1/s) tail
    of (s A0 + A1) A(s)^{-1} cancels exactly.
    """
    x, w = np.polynomial.legendre.leggauss(n)
    theta = 0.25 * np.pi * (x + 1.0)      # (0, pi/2)
    wt = 0.25 * np.pi * w
    i0 = np.zeros((3, 3), dtype=complex)
    i1 = np.zeros((3, 3), dtype=complex)
    for th, ww in zip(theta, wt):
        s = np.tan(th)
        jac = ww / np.cos(th) ** 2
        for sg in (s, -s):
            inv = np.linalg.inv(a(sg))
            i0 += jac * inv
            i1 += jac * (sg * a.a0 + a.a1) @ inv
    return i0, i1


def barnett_lothe_impedance(a: QuadraticMatrixPolynomial,
                            n_start: int = 64, tol: float = 1e-8,
                            max_nodes: int = 1 << 14) -> Impedance:
    """Outgoing impedance by the real-line integral formula.

    Solves i Z (int A^{-1} ds) = i pi I + p.v. int (s A0 + A1) A^{-1} ds,
    i.e. Z = (pi I - i I1) I0^{-1}.  For real coefficients I0, I1 are real,
    so Re Z = pi I0^{-1} automatically.  Requires a fully evanescent
    (elliptic) spectrum; node counts double until successive agreement.
    """
    cls = classify_spectrum(a)
    if cls.has_real:
        raise RealSpectrumPresent(
            "Barnett-Lothe formula needs a real-eigenvalue-free spectrum")
    n = n_start
    z_prev = None
    while n <= max_nodes:
        i0, i1 = _bl_integrals(a, n)
        z = (np.pi * np.eye(3) - 1j * i1) @ np.linalg.inv(i0)
        if z_prev is not None and np.linalg.norm(z - z_prev) <= tol * np.linalg.norm(z):
            return Impedance(z, "outgoing", a.frame)
        z_prev = z
        n *= 2
    raise QuadratureNotConverged(
        f"Barnett-Lothe quadrature not converged at {max_nodes} nodes")


# --- Lyapunov route for the tau^2-derivative --------------------------------

def impedance_tau_derivative(a: QuadraticMatrixPolynomial,
                             f: SpectralFactorization | None = None,
                             rho: float | None = None,
                             check_fd: bool = True,
                             fd_rel_step: float = 1e-5,
                             fd_tol: float = 1e-5,
                             max_eig_condition: float = 1e8) -> np.ndarray:
    """dZ/d(tau^2) from the Lyapunov equation i(Zdot Q - Q* Zdot) = -A2dot.

    A2 depends on tau only through -rho tau^2 I, so A2dot = -rho I.  The
    equation is solved in the eigenbasis of Q (elliptic frames keep spec(Q)
    and spec(Q*) disjoint), and optionally cross-checked against a central
    finite difference of the factorization impedance in tau^2.
    """
    if rho is None:
        rho = a.rho
    if rho is None:
        raise InvalidInput("rho is required (polynomial carries none)")
    if f is None:
        f = factorize(a, "outgoing")
    cls = f.classification if f.classification is not None else classify_spectrum(a)
    if cls.has_real:
        raise RealSpectrumPresent("dZ/d(tau^2) route requires an elliptic frame")

    a2dot = -rho * np.eye(3)
    qvals, v = np.linalg.eig(f.q)
    if np.linalg.cond(v) > max_eig_condition:
        raise NearDefectiveQ("eigenvector matrix of Q is too ill-conditioned")
    n = v.conj().T @ a2dot.astype(complex) @ v
    denom = 1j * (qvals[None, :] - qvals.conj()[:, None])
    m = -n / denom
    vinv = np.linalg.inv(v)
    zdot = vinv.conj().T @ m @ vinv
    zdot = 0.5 * (zdot + zdot.conj().T)

    if check_fd:
        tau = f.tau
        t0 = tau * tau
        dt = fd_rel_step * t0
        zpm = []
        for sgn in (+1.0, -1.0):
            ap = a.with_a2(a.a2 - rho * sgn * dt * np.eye(3))
            fp = factorize(ap, "outgoing", tau=tau)
            zpm.append(impedance_from_factorization(ap, fp).z)
        fd = (zpm[0] - zpm[1]) / (2.0 * dt)
        rel = np.linalg.norm(zdot - fd) / max(np.linalg.norm(zdot), 1e-300)
        if rel > fd_tol:
            raise CrossCheckFailed(
                f"Lyapunov dZ/d(tau^2) disagrees with finite difference "
                f"({rel:g} > {fd_tol:g})")
    return zdot
