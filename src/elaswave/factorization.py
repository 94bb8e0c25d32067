"""Boundary symbol polynomial, its linearization, and spectral factorization.

For a boundary frame (nu, eta, tau) the displacement symbol along the
interior normal is the self-adjoint quadratic matrix polynomial

    A(s) = A0 s^2 + (A1 + A1*) s + A2,

with A0 = nu.C.nu positive definite, A1^{ik} = nu_j C^{ijkm} eta_m, and
A2 = l(eta) - rho tau^2.  Its 6x6 linearization carries displacement and
traction traces; invariant subspaces of the linearization give right/left
roots Q, Q# with A(s) = (s - Q#) A0 (s - Q), split by outgoing/incoming
spectra.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.linalg.lapack

from .acoustic import acoustic_tensor, cluster_sorted
from .errors import (
    CoefficientOverflow,
    ContourTooClose,
    DefectiveEigenvalue,
    DegenerateA0,
    GlancingSpectrum,
    IllConditionedJ,
    InvalidInput,
    NotAnEigenvalue,
    NumericalDomainError,
    QuadratureNotConverged,
    SigmaCardinality,
    SolvencyResidual,
)
from .materials import Material

# The spectral decision of every frame rests on these fixed tolerances.
KERNEL_TOL = 1e-6        # SVD cutoff of ker A(s), relative to its largest singular value
GROUPING_TOL = 1e-8      # eigenvalues closer than this times (1 + ||S||) are one point;
                         # an |Im s| below it makes the point real
GLANCING_TOL = 1e-6      # a sign form on ker A(s) smaller than this times ||A'(s)|| glances
MAX_J_CONDITION = 1e10   # largest cond(X1) of the invariant subspace's displacement block


@dataclass(frozen=True)
class BoundaryFrame:
    """Unit interior conormal nu, tangential covector eta, frequency tau."""

    nu: np.ndarray
    eta: np.ndarray
    tau: float

    def __post_init__(self):
        nu = np.asarray(self.nu, dtype=float)
        eta = np.asarray(self.eta, dtype=float)
        if not (np.isfinite(nu).all() and np.isfinite(eta).all() and np.isfinite(self.tau)):
            raise InvalidInput("frame must be finite")
        if abs(np.linalg.norm(nu) - 1.0) > 1e-12:
            raise InvalidInput("conormal must be a unit vector")
        if abs(nu @ eta) > 1e-12 * max(float(np.abs(eta).max()), 1.0):
            raise InvalidInput("eta must be tangential (orthogonal to nu)")
        if self.tau == 0:
            raise InvalidInput("tau must be nonzero")
        nu.setflags(write=False)
        eta.setflags(write=False)
        object.__setattr__(self, "nu", nu)
        object.__setattr__(self, "eta", eta)

    def flipped(self) -> "BoundaryFrame":
        """Frame of the opposite side of an interface (conormal negated)."""
        return BoundaryFrame(-self.nu, self.eta, self.tau)


@dataclass(frozen=True)
class QuadraticMatrixPolynomial:
    """Coefficients of A(s) = A0 s^2 + (A1 + A1*) s + A2, A0 > 0, A2 = A2*.

    `scale` (the largest coefficient norm) and `a1_sym` (A1 + A1*) are
    computed once at construction and are read-only.
    """

    a0: np.ndarray
    a1: np.ndarray
    a2: np.ndarray
    frame: BoundaryFrame | None = None
    rho: float | None = None

    def __post_init__(self):
        a0 = np.asarray(self.a0, dtype=complex)
        a1 = np.asarray(self.a1, dtype=complex)
        a2 = np.asarray(self.a2, dtype=complex)
        scale = max(np.linalg.norm(a0), np.linalg.norm(a1), np.linalg.norm(a2), 1e-300)
        if np.linalg.norm(a0 - a0.conj().T) > 1e-12 * scale:
            raise InvalidInput("A0 must be Hermitian")
        if np.linalg.norm(a2 - a2.conj().T) > 1e-12 * scale:
            raise InvalidInput("A2 must be Hermitian")
        if np.linalg.eigvalsh(a0)[0] <= 0:
            raise DegenerateA0("A0 must be positive definite")
        a1_sym = a1 + a1.conj().T
        for a in (a0, a1, a2, a1_sym):
            a.setflags(write=False)
        object.__setattr__(self, "a0", a0)
        object.__setattr__(self, "a1", a1)
        object.__setattr__(self, "a2", a2)
        object.__setattr__(self, "_scale", scale)
        object.__setattr__(self, "_a1_sym", a1_sym)

    @property
    def scale(self) -> float:
        return self._scale

    @property
    def a1_sym(self) -> np.ndarray:
        return self._a1_sym

    def __call__(self, s: complex) -> np.ndarray:
        return self.a0 * s * s + self.a1_sym * s + self.a2

    def derivative(self, s: complex) -> np.ndarray:
        return 2.0 * s * self.a0 + self.a1_sym

    def with_a2(self, a2: np.ndarray) -> "QuadraticMatrixPolynomial":
        return QuadraticMatrixPolynomial(self.a0, self.a1, a2, self.frame, self.rho)


def boundary_polynomial(m: Material, frame: BoundaryFrame) -> QuadraticMatrixPolynomial:
    """Displacement symbol coefficients at a boundary frame.

    Coefficients past 1e150 would overflow once squared (in norms and in the
    Stroh block A1* A0^-1 A1), so they raise CoefficientOverflow instead.
    """
    eta, tau = 1.0 + float(np.abs(frame.eta).max()), abs(float(frame.tau))
    size = m.stiffness.norm * eta * eta + float(m.density) * tau * tau
    if not size <= 1e150:
        raise CoefficientOverflow(f"boundary polynomial coefficients of size {size:.3g} "
                                  "exceed 1e150")
    c = m.stiffness.entries
    a0 = np.einsum("j,ijkm,m->ik", frame.nu, c, frame.nu)
    a1 = np.einsum("j,ijkm,m->ik", frame.nu, c, frame.eta)
    a2 = acoustic_tensor(m.stiffness, frame.eta) - m.density * frame.tau ** 2 * np.eye(3)
    return QuadraticMatrixPolynomial(a0, a1, a2, frame=frame, rho=m.density)


@dataclass(frozen=True)
class StrohMatrix:
    """6x6 linearization of A(s); K S is Hermitian for K the block swap."""

    matrix: np.ndarray

    @property
    def block_swap(self) -> np.ndarray:
        k = np.zeros((6, 6))
        k[:3, 3:] = np.eye(3)
        k[3:, :3] = np.eye(3)
        return k


def stroh(a: QuadraticMatrixPolynomial) -> StrohMatrix:
    """Linearize: A(s)^{-1} = J1 (s - S)^{-1} J2*."""
    a0inv = np.linalg.inv(a.a0)
    a1h = a.a1.conj().T
    s = np.empty((6, 6), dtype=complex)
    s[:3, :3] = -a0inv @ a.a1
    s[:3, 3:] = a0inv
    s[3:, :3] = -a.a2 + a1h @ a0inv @ a.a1
    s[3:, 3:] = -a1h @ a0inv
    return StrohMatrix(s)


@dataclass(frozen=True)
class EigenvalueGroup:
    """One point of the spectrum with multiplicities and, if real, its sign type.

    `kernel` and `geo_mult` exist for real groups only and are None for
    non-real ones: the outgoing/incoming split needs a kernel only where the
    sign of (A'(s)v|v) decides it, and non-real eigenvalues are split by
    half plane alone.
    """

    value: complex
    alg_mult: int
    geo_mult: int | None
    is_real: bool
    sign_type: str | None        # 'positive' | 'negative' | None
    glancing: bool
    kernel: np.ndarray | None    # 3 x geo_mult orthonormal kernel basis of A(value)


@dataclass(frozen=True)
class SpectrumClassification:
    """Grouped spectrum of the linearization and its complex Schur form.

    schur = (T, Z) with S = Z T Z*; factorize reorders it per direction
    instead of solving the spectrum again.
    """

    groups: tuple
    stroh_norm: float
    schur: tuple = field(repr=False)

    @property
    def glancing(self) -> bool:
        return any(g.glancing for g in self.groups)

    @property
    def real_groups(self) -> tuple:
        return tuple(g for g in self.groups if g.is_real)

    @property
    def has_real(self) -> bool:
        return any(g.is_real for g in self.groups)

    @property
    def dim_evanescent(self) -> int:
        """Number of non-real eigenvalues in the upper half plane (with mult.)."""
        return sum(g.alg_mult for g in self.groups
                   if not g.is_real and g.value.imag > 0)


def kernel_basis(a: QuadraticMatrixPolynomial, s: complex) -> np.ndarray:
    """Orthonormal basis (3 x k) of ker A(s) from an SVD cutoff."""
    mat = a(s)
    u, sv, vh = np.linalg.svd(mat)
    cutoff = KERNEL_TOL * max(sv[0], a.scale * 1e-12)
    k = int(np.sum(sv <= cutoff))
    if k == 0:
        return np.zeros((3, 0), dtype=complex)
    return vh[3 - k:].conj().T


def classify_spectrum(a: QuadraticMatrixPolynomial) -> SpectrumClassification:
    """Eigenvalues of the linearization, grouped, with sign types for real ones.

    The eigenvalues are the diagonal of one complex Schur form, which is
    kept for factorize.  A real eigenvalue is glancing when the derivative
    form on its kernel is indefinite or too small, or when the eigenvalue is
    defective.
    """
    s6 = stroh(a).matrix
    norm = float(np.linalg.norm(s6))
    t, z = scipy.linalg.schur(s6, output="complex")
    t.setflags(write=False)
    z.setflags(write=False)
    vals = np.diag(t)
    vals = vals[np.lexsort((vals.imag, vals.real))]
    tol_real = GROUPING_TOL * (1.0 + norm)
    groups = []
    for idx, mean in cluster_sorted(vals, max(tol_real, 1e3 * np.finfo(float).eps * norm)):
        mean = complex(mean)
        is_real = abs(mean.imag) <= tol_real
        value = complex(mean.real) if is_real else mean
        alg = len(idx)
        kern = geo = sign_type = None
        glancing = False
        if is_real:
            kern = kernel_basis(a, value)
            geo = kern.shape[1]
            if geo < alg:
                glancing = True   # defective real eigenvalue
            if geo > 0:
                da = a.derivative(value.real)
                form = kern.conj().T @ da @ kern
                form = 0.5 * (form + form.conj().T)
                eigs = np.linalg.eigvalsh(form)
                thresh = GLANCING_TOL * max(np.linalg.norm(da), 1e-300)
                if eigs[0] > thresh:
                    sign_type = "positive"
                elif eigs[-1] < -thresh:
                    sign_type = "negative"
                else:
                    glancing = True
        groups.append(EigenvalueGroup(value, alg, geo, is_real, sign_type,
                                      glancing, kern))
    return SpectrumClassification(tuple(groups), norm, (t, z))


def _sigma_values(classification: SpectrumClassification, direction: str,
                  tau: float) -> list[complex]:
    """Target spectrum half: upper half plane plus matching-type real points.

    Outgoing real eigenvalues satisfy -tau (A'(s)v|v) > 0 on the kernel, so
    they are of positive type when tau < 0 and negative type when tau > 0.
    """
    if direction not in ("outgoing", "incoming"):
        raise InvalidInput(f"direction must be outgoing or incoming, got {direction!r}")
    want = "positive" if (tau < 0) == (direction == "outgoing") else "negative"
    sigma = []
    for g in classification.groups:
        if not g.is_real and g.value.imag > 0:
            sigma.extend([g.value] * g.alg_mult)
        elif g.is_real and g.sign_type == want:
            sigma.extend([g.value] * g.alg_mult)
    return sigma


@dataclass(frozen=True)
class SpectralFactorization:
    """Right/left roots of A(s) = (s - Q#) A0 (s - Q) with spec(Q) = sigma."""

    q: np.ndarray
    q_sharp: np.ndarray
    sigma: tuple
    direction: str
    tau: float
    poly: QuadraticMatrixPolynomial
    classification: SpectrumClassification = field(repr=False, default=None)

    @functools.cached_property
    def q_spectrum(self) -> np.ndarray:
        """Computed eigenvalues of q, shared by validation and the mode projectors."""
        return np.linalg.eigvals(self.q)

    @property
    def solvency_residual(self) -> float:
        a = self.poly
        res = a.a0 @ self.q @ self.q + a.a1_sym @ self.q + a.a2
        return float(np.linalg.norm(res) / a.scale)


def factorize(a: QuadraticMatrixPolynomial, direction: str = "outgoing",
              tau: float | None = None,
              classification: SpectrumClassification | None = None) -> SpectralFactorization:
    """Spectral factorization via an ordered Schur form of the linearization.

    The invariant subspace for the selected half of the spectrum is computed
    by reordering the classification's Schur form (robust to the double
    shear eigenvalue); the right root is read off its displacement block.
    Passing the classification of `a` lets both directions share one
    spectrum computation.
    """
    if tau is None:
        if a.frame is None:
            raise InvalidInput("tau is required when the polynomial carries no frame")
        tau = a.frame.tau
    if classification is None:
        classification = classify_spectrum(a)
    if classification.glancing:
        raise GlancingSpectrum("spectrum has a glancing real eigenvalue")

    sigma = _sigma_values(classification, direction, tau)
    if len(sigma) != 3:
        raise SigmaCardinality(
            f"selected spectrum has cardinality {len(sigma)}, expected 3")

    targets = np.array(sorted(set(sigma), key=lambda z: (z.real, z.imag)))
    match_tol = max(GROUPING_TOL * (1.0 + classification.stroh_norm), 1e-12)
    t, zvec = classification.schur
    dist = np.abs(np.diag(t)[:, None] - targets[None, :]).min(axis=1)
    t, zvec, _, sdim, _, _, info = scipy.linalg.lapack.ztrsen(
        (dist <= 10 * match_tol).astype(np.int32), t, zvec, job="N")
    if info != 0:
        raise NumericalDomainError(f"Schur reordering failed (ztrsen info {info})")
    if sdim != 3:
        raise SigmaCardinality(
            f"ordered Schur selected a {sdim}-dimensional subspace, expected 3")
    x = zvec[:, :3]
    x1 = x[:3, :]
    if np.linalg.cond(x1) > MAX_J_CONDITION:
        raise IllConditionedJ("displacement block of the invariant subspace is "
                              "too ill-conditioned")
    q = x1 @ t[:3, :3] @ np.linalg.inv(x1)
    q_sharp = -(a.a0 @ q + a.a1_sym) @ np.linalg.inv(a.a0)

    fact = SpectralFactorization(q, q_sharp, tuple(sigma), direction, float(tau),
                                 a, classification)
    _validate_factorization(fact)
    return fact


def _validate_factorization(f: SpectralFactorization) -> None:
    if f.solvency_residual > 1e-10:
        raise SolvencyResidual(
            f"solvency residual {f.solvency_residual:g} exceeds 1e-10")
    eq = f.q_spectrum
    es = np.linalg.eigvals(f.q_sharp)
    scale = max(np.max(np.abs(eq)), np.max(np.abs(es)), 1e-300)
    gap = np.min(np.abs(eq[:, None] - es[None, :]))
    if gap <= 1e-6 * scale:
        raise GlancingSpectrum(
            f"right/left root spectra nearly intersect (gap {gap:g})")


def factorization_residual(f: SpectralFactorization, s_values) -> float:
    """Max relative residual of A(s) - (s - Q#) A0 (s - Q) over given s."""
    a = f.poly
    worst = 0.0
    eye = np.eye(3)
    for s in s_values:
        lhs = a(s)
        rhs = (s * eye - f.q_sharp) @ a.a0 @ (s * eye - f.q)
        worst = max(worst, np.linalg.norm(lhs - rhs) / (a.scale * max(1.0, abs(s) ** 2)))
    return float(worst)


# --- contour-integral oracles ----------------------------------------------

def _circle_moments(a: QuadraticMatrixPolynomial, center: complex, radius: float,
                    n_nodes: int):
    """Trapezoidal (1/2 pi i) contour integrals of A^{-1} and s A^{-1}."""
    theta = 2.0 * np.pi * np.arange(n_nodes) / n_nodes
    c0 = np.zeros((3, 3), dtype=complex)
    c1 = np.zeros((3, 3), dtype=complex)
    for th in theta:
        z = center + radius * np.exp(1j * th)
        w = radius * np.exp(1j * th) / n_nodes   # includes the 1/(2 pi i) factor
        inv = np.linalg.inv(a(z))
        c0 += w * inv
        c1 += w * z * inv
    return c0, c1


def contour_root_check(a: QuadraticMatrixPolynomial, q: np.ndarray,
                       center: complex, radius: float,
                       n_nodes: int = 256, tol: float = 1e-10,
                       max_nodes: int = 1 << 16):
    """Residual of Q . (contour integral of A^{-1}) - (contour integral of s A^{-1}).

    The circle must enclose part of spec(Q) only, with clearance > radius/10
    from every eigenvalue of A.  Node counts double until two successive
    quadratures agree to tol.  Returns (relative_residual, info).
    """
    spec_a = np.linalg.eigvals(stroh(a).matrix)
    dist_to_circle = np.abs(np.abs(spec_a - center) - radius)
    if np.min(dist_to_circle) <= radius / 10.0:
        raise ContourTooClose("an eigenvalue lies within radius/10 of the contour")
    spec_q = np.linalg.eigvals(q)
    spec_sharp = [z for z in spec_a
                  if np.min(np.abs(z - spec_q)) > 1e-6 * max(1.0, np.max(np.abs(spec_a)))]
    if any(abs(z - center) < radius for z in spec_sharp):
        raise ContourTooClose("circle encloses left-root spectrum")

    prev = None
    nodes = n_nodes
    while True:
        c0, c1 = _circle_moments(a, center, radius, nodes)
        if prev is not None and np.linalg.norm(c0 - prev[0]) + np.linalg.norm(c1 - prev[1]) < tol:
            break
        if nodes >= max_nodes:
            raise QuadratureNotConverged("contour quadrature did not converge")
        prev = (c0, c1)
        nodes *= 2

    scale = np.linalg.norm(c1)
    enclosed_rank = int(np.sum(np.abs(spec_q - center) < radius))
    if enclosed_rank == 0 or scale < 1e-12:
        return 0.0, {"nodes": nodes, "enclosed_rank": enclosed_rank, "empty": True}
    residual = float(np.linalg.norm(q @ c0 - c1) / scale)
    return residual, {"nodes": nodes, "enclosed_rank": enclosed_rank, "empty": False}


def residue(a: QuadraticMatrixPolynomial, s: float,
            radius: float | None = None, n_nodes: int = 256,
            classification: SpectrumClassification | None = None) -> np.ndarray:
    """Residue of A(z)^{-1} at a semisimple real eigenvalue, by contour quadrature.

    The result is Hermitian, supported on ker A(s), and semidefinite with the
    sign of the eigenvalue's type.
    """
    if classification is None:
        classification = classify_spectrum(a)
    tol = GROUPING_TOL * (1.0 + classification.stroh_norm)
    group = None
    for g in classification.groups:
        if g.is_real and abs(g.value.real - s) <= max(tol, GROUPING_TOL * (1 + abs(s))):
            group = g
            break
    if group is None:
        raise NotAnEigenvalue(f"{s} is not a real eigenvalue")
    if group.geo_mult < group.alg_mult:
        raise DefectiveEigenvalue(f"real eigenvalue {s} is defective")
    if radius is None:
        others = [g.value for g in classification.groups if g is not group]
        nearest = min((abs(z - group.value) for z in others), default=1.0)
        radius = 0.45 * nearest
    theta = 2.0 * np.pi * np.arange(n_nodes) / n_nodes
    r = np.zeros((3, 3), dtype=complex)
    for th in theta:
        z = group.value.real + radius * np.exp(1j * th)
        r += (radius * np.exp(1j * th) / n_nodes) * np.linalg.inv(a(z))
    return 0.5 * (r + r.conj().T)
