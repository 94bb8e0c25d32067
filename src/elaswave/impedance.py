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

from dataclasses import dataclass

import numpy as np

from . import _lapack
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
    QuadraticMatrixPolynomial,
    SpectralFactorization,
    _record,
    classify_spectrum,
    factorize,
)

MODAL_FLUX_TOL = 1e-9     # largest relative residual of the modal flux identity
BL_NODES = 64             # first Gauss-Legendre node count of the Barnett-Lothe integrals
BL_TOL = 1e-8             # relative change of z at which the node doubling stops
BL_MAX_NODES = 1 << 14    # past this count it raises QuadratureNotConverged
FD_REL_STEP = 1e-5        # finite-difference step in tau^2, relative to tau^2
FD_TOL = 1e-5             # largest relative Lyapunov - finite-difference disagreement
MAX_EIG_CONDITION = 1e8   # largest condition number of the eigenvector matrix of Q
_EYE = np.eye(3, dtype=complex)
# For n clusters, row j lists the clusters k != j, ascending: the factors of
# the Lagrange product of cluster j, in the order they are multiplied.
_OTHERS = {n: np.array([[k for k in range(n) if k != j] for j in range(n)],
                       dtype=int).reshape(n, n - 1) for n in (1, 2, 3)}


@dataclass(frozen=True)
class Impedance:
    """Boundary impedance z."""

    z: np.ndarray

    def hermiticity_residual(self, subspace: np.ndarray) -> float:
        """Relative defect of z = z* on a subspace (columns span it)."""
        if subspace.shape[1] == 0:
            return 0.0
        q, _ = np.linalg.qr(subspace)
        m = q.conj().T @ self.z @ q
        return float(np.linalg.norm(m - m.conj().T) /
                     max(np.linalg.norm(self.z), 1e-300))


def _impedance(a0: np.ndarray, q: np.ndarray, a1: np.ndarray) -> np.ndarray:
    """-i(A0 Q + A1), for one root or a stack of them."""
    return -1j * (a0 @ q + a1)


def impedance_from_factorization(a: QuadraticMatrixPolynomial,
                                 f: SpectralFactorization) -> Impedance:
    """z = -i(A0 Q + A1) of the factorization's direction."""
    return Impedance(_impedance(a.a0, f.q, a.a1))


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

    @property
    def pi_r(self) -> np.ndarray:
        return np.eye(3) - self.pi_c

    def ec_basis(self) -> np.ndarray:
        """Orthonormal columns spanning E_c = range(pi_c)."""
        u, sv, _ = _lapack.svd(self.pi_c)
        k = int(np.sum(sv > 0.5))
        return u[:, :k]


def mode_projectors(f: SpectralFactorization) -> ModeProjectors:
    """Lagrange spectral projectors per eigenvalue cluster of Q."""
    return _mode_projectors([f])[0]


def _mode_projectors(facts: list) -> list:
    """mode_projectors of each factorization, bit for bit what it gets alone.

    The eigenvalues of each Q are sorted as one stack and clustered one Q at
    a time.  The Lagrange products prod_{k != j} (Q - m_k)/(m_j - m_k), k
    ascending, then run for every cluster j of every Q with as many clusters
    at once: step t multiplies each product by its t-th factor.
    """
    spectra = np.array([f.q_spectrum for f in facts])
    tols = [GROUPING_TOL * (1.0 + max(norm, 1e-300))
            for norm in np.maximum.reduce(np.abs(spectra), axis=1).tolist()]
    order = (spectra.real + 1e-9 * spectra.imag).argsort(axis=1)
    clustered = [cluster_sorted(vals[idx], 100 * tol)
                 for vals, idx, tol in zip(spectra, order, tols)]

    products = [None] * len(facts)
    by_count = {}
    for i, clusters in enumerate(clustered):
        by_count.setdefault(len(clusters), []).append(i)
    for n, members in by_count.items():
        q = np.array([facts[i].q for i in members])
        means = np.array([[mean for _, mean in clustered[i]] for i in members])
        others = means[:, _OTHERS[n]]       # m_k of the factors of each product
        factors = q[:, None, None] - others[..., None, None] * _EYE
        gaps = means[:, :, None] - others   # m_j - m_k
        p = _EYE        # the first step broadcasts it over the stack
        for t in range(n - 1):
            p = p @ factors[:, :, t] / gaps[:, :, t, None, None]
        if n == 1:      # one cluster, whose projector is the identity
            p = np.array([[_EYE]] * len(members))
        for row, i in enumerate(members):
            products[i] = p[row]

    out = []
    for f, clusters, tol, projectors in zip(facts, clustered, tols, products):
        psi = {}
        pi_c = np.zeros((3, 3), dtype=complex)
        dim_ec = 0
        for (idx, mean), p in zip(clusters, projectors):
            if abs(mean.imag) <= tol:
                psi[float(mean.real)] = p
            else:
                pi_c = pi_c + p
                dim_ec += len(idx)
        out.append(_record(ModeProjectors, psi=psi, pi_c=pi_c, dim_ec=dim_ec, dim_er=3 - dim_ec))
    return out


def flux_form(z: Impedance | np.ndarray, tau: float, u: np.ndarray) -> float:
    """Outgoing energy flux -tau Im(u|zu) carried by a boundary trace u."""
    zm = z.z if isinstance(z, Impedance) else z
    return float(-tau * np.imag(np.vdot(zm @ u, u)))


@dataclass(frozen=True)
class ModalFluxes:
    """Both sides of the flux identity 2 Im(u|Zu) = sum_s (A'(s)u_s|u_s)."""

    per_mode: dict          # real eigenvalue -> (A'(s)u_s|u_s)/2
    lhs: float              # 2 Im(u|Zu)
    residual: float


def modal_flux_decomposition(a: QuadraticMatrixPolynomial,
                             f: SpectralFactorization, u: np.ndarray,
                             projectors: ModeProjectors | None = None,
                             z: Impedance | None = None) -> ModalFluxes:
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
    if residual > MODAL_FLUX_TOL:
        raise CrossCheckFailed(
            f"modal flux identity residual {residual:g} exceeds {MODAL_FLUX_TOL:g}")
    return ModalFluxes(per_mode, lhs, residual)


# --- Barnett-Lothe integral route (elliptic frames) ------------------------

def _bl_integrals(a: QuadraticMatrixPolynomial, n: int):
    """Gauss-Legendre tan-substitution integrals over the real line, with
    A(s) inverted at all nodes as one stack.

    Nodes come in +-s pairs, summed next to each other, so the principal
    value of the odd O(1/s) tail of (s A0 + A1) A(s)^{-1} cancels.
    """
    x, w = np.polynomial.legendre.leggauss(n)
    theta = 0.25 * np.pi * (x + 1.0)      # (0, pi/2)
    jac = np.repeat(0.25 * np.pi * w / np.cos(theta) ** 2, 2)
    s = np.column_stack((np.tan(theta), -np.tan(theta))).ravel()[:, None, None]
    inv = np.linalg.inv(a(s))
    return (np.einsum("n,nij->ij", jac, inv),
            np.einsum("n,nij->ij", jac, (s * a.a0 + a.a1) @ inv))


def barnett_lothe_impedance(a: QuadraticMatrixPolynomial) -> Impedance:
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
    n = BL_NODES
    z_prev = None
    while n <= BL_MAX_NODES:
        i0, i1 = _bl_integrals(a, n)
        z = (np.pi * np.eye(3) - 1j * i1) @ np.linalg.inv(i0)
        if z_prev is not None and np.linalg.norm(z - z_prev) <= BL_TOL * np.linalg.norm(z):
            return Impedance(z)
        z_prev = z
        n *= 2
    raise QuadratureNotConverged(
        f"Barnett-Lothe quadrature not converged at {BL_MAX_NODES} nodes")


# --- Lyapunov route for the tau^2-derivative --------------------------------

def impedance_tau_derivative(a: QuadraticMatrixPolynomial, f: SpectralFactorization,
                             rho: float | None = None,
                             check_fd: bool = True) -> np.ndarray:
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
    if f.classification.has_real:
        raise RealSpectrumPresent("dZ/d(tau^2) route requires an elliptic frame")

    a2dot = -rho * np.eye(3)
    qvals, v = np.linalg.eig(f.q)
    if np.linalg.cond(v) > MAX_EIG_CONDITION:
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
        dt = FD_REL_STEP * t0
        zpm = []
        for sgn in (+1.0, -1.0):
            ap = a.with_a2(a.a2 - rho * sgn * dt * np.eye(3))
            fp = factorize(ap, "outgoing", tau=tau)
            zpm.append(impedance_from_factorization(ap, fp).z)
        fd = (zpm[0] - zpm[1]) / (2.0 * dt)
        rel = np.linalg.norm(zdot - fd) / max(np.linalg.norm(zdot), 1e-300)
        if rel > FD_TOL:
            raise CrossCheckFailed(
                f"Lyapunov dZ/d(tau^2) disagrees with finite difference "
                f"({rel:g} > {FD_TOL:g})")
    return zdot
