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

import itertools
from contextlib import suppress
from dataclasses import dataclass

import numpy as np

from .errors import (
    ElasticError,
    GlancingLimit,
    GlancingSpectrum,
    InvalidInput,
    NoSurfaceWave,
    NumericalDomainError,
)
from .factorization import (
    BoundaryFrame,
    SpectralFactorization,
    _classify,
    _factorize,
    _polynomial_stacks,
    boundary_polynomial,
    classify_spectrum,
    factorize,
)
from .impedance import (
    Impedance,
    ModeProjectors,
    _impedance,
    _mode_projectors,
    impedance_from_factorization,
    mode_projectors,
)
from .materials import Material, decompose_harmonic

ANGLE_TOL = 1e-8        # principal angles with cosine above 1 - ANGLE_TOL count as shared
BISECTION_TOL = 1e-10   # bisections stop at this width relative to the upper end
EDGE_OFFSET = 1e-6      # surface-wave brackets end this far, relatively, below tau_eta
ISOTROPY_TOL = 1e-8     # the closed form takes a harmonic anisotropy up to this times ||C||
ISO_GLANCING_TOL = 1e-10  # a closed-form root with s^2 this close, relatively, to 0 glances
_CHUNK = 256            # frames solved as one stack, so memory stays flat on any grid


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

    The boundary polynomial is built at construction.  Its spectrum
    classification and each direction's factorization, impedance matrix and
    mode projectors are built on first use and kept for the object's
    lifetime, so both directions share one spectrum and every law or label
    built on the side shares its factorizations.  `with_tau` gives the side
    at another tau, sharing the polynomial's tau-independent core.  The side
    of an interface's - material is built at the flipped frame (`_stacks`).
    """

    def __init__(self, m: Material, frame: BoundaryFrame):
        self._settle(m, boundary_polynomial(m, frame))

    def _settle(self, m: Material, poly) -> None:
        self.material, self.poly, self.frame, self._built = m, poly, poly.frame, {}

    @staticmethod
    def _of(m: Material, poly, **built) -> "BoundarySide":
        side = BoundarySide.__new__(BoundarySide)
        side._settle(m, poly)
        side._built.update(built)
        return side

    def with_tau(self, tau: float) -> "BoundarySide":
        return BoundarySide._of(self.material, self.poly.with_tau(tau))

    def _once(self, key, build):
        if key not in self._built:
            self._built[key] = build()
        return self._built[key]

    @property
    def classification(self):
        return self._once("classification", lambda: classify_spectrum(self.poly))

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


def _stacks(materials, frames: list) -> list:
    """(material, frames) of each side: [(m, frames)] for a boundary (one
    material), [(m+, frames), (m-, flipped frames)] for an interface (two
    materials), whose - side is seen from the flipped frame."""
    if isinstance(materials, Material):
        return [(materials, frames)]
    if not (isinstance(materials, (tuple, list)) and len(materials) == 2
            and all(isinstance(m, Material) for m in materials)):
        raise InvalidInput("materials must be one Material or a pair (m+, m-) of them")
    mp, mm = materials
    return [(mp, frames), (mm, [frame.flipped() for frame in frames])]


def _sides(materials, frame: BoundaryFrame) -> tuple:
    """The BoundarySide of each side (see `_stacks`) at a frame."""
    return tuple(BoundarySide(m, f) for m, (f,) in _stacks(materials, [frame]))


def _dims(sides) -> tuple:
    """dim E_c of each side, None where its spectrum glances."""
    return tuple(None if side.classification.glancing
                 else side.classification.dim_evanescent for side in sides)


def _has_margin(dims: tuple) -> bool:
    """Whether a frame is hyperbolic or mixed, and so has a margin: no side
    glances and some side's E_c is not the whole space."""
    return None not in dims and dims.count(3) < len(dims)


def _region(sides) -> RegionClass:
    """Region of a frame from its classified sides; a mixed/mixed interface
    takes principal angles between the sides' evanescent subspaces."""
    dims = _dims(sides)
    if None in dims:
        return RegionClass("glancing", dims)
    if len(sides) == 1:
        label = {0: "hyperbolic", 3: "elliptic"}.get(dims[0], "mixed")
        return RegionClass(label, dims)

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
    return RegionClass(label, dims, inter)


def classify(materials, frame: BoundaryFrame) -> RegionClass:
    """Region of a boundary (one material) or interface (two materials).

    Boundary: hyperbolic iff E_c = 0, elliptic iff E_c = E.  Interface:
    hyperbolic iff E_c+ and E_c- intersect trivially, elliptic iff both
    evanescent subspaces are full.
    """
    return _region(_sides(materials, frame))


def _iso_moduli(m: Material):
    h = decompose_harmonic(m.stiffness)
    aniso = (np.linalg.norm(h.a) + np.linalg.norm(h.b) + np.linalg.norm(h.h))
    if aniso > ISOTROPY_TOL * max(m.stiffness.norm, 1e-300):
        raise InvalidInput("material is not isotropic")
    return h.lam, h.mu


def _outgoing_root(c2: float, rho: float, eta2: float, tau: float) -> complex:
    """Outgoing root of c2(s^2 + eta^2) = rho tau^2 for one wave family."""
    disc = rho * tau * tau / c2 - eta2
    scale = max(abs(rho * tau * tau / c2), eta2, 1.0)
    if abs(disc) <= ISO_GLANCING_TOL * scale:
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
        return Impedance(z)

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
    return Impedance(z)


class _Threshold:
    """A test value that is positive below an unknown threshold and not above
    it.  The tightest bracket (below, above) of the values it has taken
    answers, without running the test, whether t lies below the threshold."""

    def __init__(self, test):
        self.test, self.below, self.above = test, -np.inf, np.inf

    def __call__(self, t: float) -> bool:
        if self.below < t < self.above:
            return self.value(t) > 0
        return t <= self.below

    def value(self, t: float):
        v = self.test(t)
        if v > 0:
            self.below = max(self.below, t)
        else:
            self.above = min(self.above, t)
        return v


def _bisect(holds, lo: float, hi: float) -> float:
    while hi - lo > BISECTION_TOL * hi:
        mid = 0.5 * (lo + hi)
        if holds(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _limiting_tau(core, rho: float) -> float | None:
    """Barnett-Lothe limit tau_L: rho tau_L^2 is the minimum over real s of
    lambda_min(l(eta_hat + s nu)), taken on a grid over the angle theta of
    eta_hat + s nu (s = tan theta) that zooms in around its smallest value."""
    lo, hi = -0.5 * np.pi, 0.5 * np.pi
    for _ in range(7):
        theta = np.linspace(lo, hi, 34)[1:-1]
        c, s = np.cos(theta)[:, None, None], np.sin(theta)[:, None, None]
        l_xi = s * s * core.a0.real + s * c * core.a1_sym.real + c * c * core.l_eta
        vals = np.linalg.eigvalsh(l_xi)[:, 0] / np.cos(theta) ** 2
        k = int(np.argmin(vals))
        lo, hi = theta[max(k - 1, 0)], theta[min(k + 1, 31)]
    return float(np.sqrt(vals[k] / rho)) if vals[k] > 0 else None


def tau_limit(m: Material, nu: np.ndarray, eta_hat: np.ndarray) -> float:
    """Largest tau with a fully evanescent spectrum, by bisection.

    For isotropic media this is c_s |eta|; in general it is the limiting
    velocity of the slowest family along (nu, eta_hat).  Probes at (1 -+ 1e-12)
    times the Barnett-Lothe limit bracket it first; the bisection keeps its floats.
    """
    return _tau_limit(m, nu, eta_hat)[0]


def _tau_limit(m: Material, nu: np.ndarray, eta_hat: np.ndarray):
    """tau_limit, with the BoundarySide at (nu, eta_hat) that it probes, so
    that a surface-wave scan goes on from the same polynomial core."""
    eta_hat = np.asarray(eta_hat, dtype=float)
    if abs(np.linalg.norm(eta_hat) - 1.0) > 1e-10:
        raise InvalidInput("eta_hat must be a unit vector")

    side = BoundarySide(m, BoundaryFrame(nu, eta_hat, -1.0))

    def test(t: float) -> bool:
        cls = side.with_tau(-t).classification
        return (not cls.has_real) and cls.dim_evanescent == 3

    elliptic, t_l = _Threshold(test), _limiting_tau(side.poly.core, m.density)
    with suppress(NumericalDomainError):    # the bisection meets it again
        for t in (t_l * (1.0 - 1e-12), t_l * (1.0 + 1e-12)) if t_l else ():
            elliptic(t)
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
    return _bisect(elliptic, lo, hi), side


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


def _regula_falsi(holds: _Threshold, a: float, fa: float, b: float, fb: float) -> None:
    """Illinois regula falsi on holds.value from fa > 0 at a to fb <= 0 at b,
    until the bracket is 1e-13 b wide or a numerical failure ends it."""
    tol, kept = 1e-13 * b, None      # the end the last step kept
    with suppress(NumericalDomainError):
        for _ in range(100):
            if b - a <= tol:
                return
            c = (a * fb - b * fa) / (fb - fa)
            c = c if a < c < b else 0.5 * (a + b)
            fc = holds.value(c)
            if fc > 0:
                a, fa, fb, kept = c, fc, 0.5 * fb if kept == "b" else fb, "b"
            else:
                b, fb, fa, kept = c, fc, 0.5 * fa if kept == "a" else fa, "a"


def _surface_wave_bisect(zfun, tau_eta: float) -> RayleighResult:
    """Root of lambda_min(zfun(tau)) by bisection, which runs only its probes
    inside the bracket a regula falsi from the end values leaves first."""
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
    holds = _Threshold(lambda t: _lambda_min(zfun(t))[0])
    _regula_falsi(holds, t_lo, f_lo, t_hi, f_hi)
    tau_r = _bisect(holds, t_lo, t_hi)
    zr = zfun(tau_r)
    _, vec = _lambda_min(zr)
    det_res = float(abs(np.linalg.det(zr)) / max(np.linalg.norm(zr) ** 3, 1e-300))
    return RayleighResult(tau_r, 1.0 / tau_r, vec, tau_eta, (t_lo, t_hi), det_res)


def rayleigh_speed(m: Material, nu: np.ndarray, eta_hat: np.ndarray) -> RayleighResult:
    """Free-surface (Rayleigh) frequency: the zero of lambda_min(z).

    lambda_min decreases strictly in tau on the elliptic interval, so the
    sign change, when present, has a unique root.
    """
    tau_eta, side = _tau_limit(m, nu, eta_hat)
    return _surface_wave_bisect(lambda t: side.with_tau(-t).z(), tau_eta)


def stoneley_speed(m_plus: Material, m_minus: Material, nu: np.ndarray,
                   eta_hat: np.ndarray) -> RayleighResult:
    """Interface (Stoneley) frequency: the zero of lambda_min(z+ + z-)."""
    tau_plus, plus = _tau_limit(m_plus, nu, eta_hat)
    tau_minus, minus = _tau_limit(m_minus, nu, eta_hat)
    tau_eta, minus = min(tau_plus, tau_minus), BoundarySide(m_minus, minus.frame.flipped())

    def zfun(t: float) -> np.ndarray:
        return plus.with_tau(-t).z() + minus.with_tau(-t).z()

    return _surface_wave_bisect(zfun, tau_eta)


def _stacked_sides(stacks: list) -> list:
    """The classified BoundarySide of each frame of stacks of (material,
    frames), every step solved for all sides at once: the polynomials of all
    stacks (`_polynomial_stacks`: one stack of cores, A2 settled per
    material), then one classification of all of them.  Each stage gives an
    entry what it gives the entry alone, and meets the entries in the order
    the stacks list them, + side first (see `_stacks`), so the first failure
    of a stage is the first in that order."""
    polys = _polynomial_stacks(stacks)
    classes = iter(_classify([a for stack in polys for a in stack]))
    return [[BoundarySide._of(m, a, classification=next(classes)) for a in stack]
            for (m, _), stack in zip(stacks, polys)]


def _stacked_factorizations(sides: list, direction: str) -> None:
    """Store on each side that lacks one its factorization in `direction`
    and that factorization's z, solved for all those sides as one stack and
    bit for bit what each side builds alone."""
    sides = [s for s in sides if ("factorization", direction) not in s._built]
    if sides:
        facts = _factorize([s.poly for s in sides], [s.classification for s in sides],
                           direction, [s.frame.tau for s in sides])
        z = _impedance(np.array([s.poly.a0 for s in sides]), np.array([f.q for f in facts]),
                       np.array([s.poly.a1 for s in sides]))
        for side, f, z_side in zip(sides, facts, z):
            side._built.update({("factorization", direction): f, ("z", direction): z_side})


def _stacked_projectors(requests: list) -> None:
    """Store on each (side, direction) of `requests` that lacks them the mode
    projectors of that direction's factorization, built for all of them as
    one stack and bit for bit what each side builds alone."""
    due = [(side, d) for side, d in dict.fromkeys(requests)
           if ("projectors", d) not in side._built]
    if due:
        built = _mode_projectors([side.factorization(d) for side, d in due])
        for (side, d), projectors in zip(due, built):
            side._built["projectors", d] = projectors


def _solve_frames(materials, frames: list) -> list:
    """(region, margin) of each frame from its sides, built as stacks with
    outgoing factorizations on the frames that have a margin.  The + side's
    stack is factorized, to its root checks, before the - side's, so a pair
    at one frame fails as its + side, then its - side, would."""
    sides = _stacked_sides(_stacks(materials, frames))
    rows = list(zip(*sides))
    due = [j for j, row in enumerate(rows) if _has_margin(_dims(row))]
    margins = dict.fromkeys(range(len(frames)))
    if due:     # sigma_min / sigma_max of z, or of z+ + z- for a pair
        for stack in sides:
            _stacked_factorizations([stack[j] for j in due], "outgoing")
        z = sum(np.array([stack[j].z() for j in due]) for stack in sides)
        sv = np.linalg.svd(z, compute_uv=False)
        margins.update(zip(due, (sv[:, -1] / np.maximum(sv[:, 0], 1e-300)).tolist()))
    return [(_region(row), margins[j]) for j, row in enumerate(rows)]


def classify_frames(materials, frames):
    """(frame, region, margin) for each frame, where the margin is
    sigma_min(z)/||z|| on hyperbolic and mixed frames and None on elliptic
    and glancing ones.  For material pairs z is replaced by z+ + z-.

    Frames are solved as stacks, a fixed number at a time.  A stack raises
    the first failure in its stacked order (see `_solve_frames`), so a stack
    that raises is solved again one frame at a time: the error is then the
    one a loop over the frames, one after another, would raise first.  Loop
    order is restored here and nowhere else.
    """
    frames = iter(frames)
    while chunk := list(itertools.islice(frames, _CHUNK)):
        try:
            rows = _solve_frames(materials, chunk)
        except ElasticError:
            rows = [_solve_frames(materials, [frame])[0] for frame in chunk]
        for frame, (region, margin) in zip(chunk, rows):
            yield frame, region, margin


def ellipticity_margin(materials, frames) -> tuple[float, list]:
    """Minimum sigma_min(z)/||z|| over non-elliptic, non-glancing frames.

    For material pairs z is replaced by z+ + z-.  Returns the margin and
    per-frame rows (frame, label, normalized sigma_min).
    """
    rows = [(frame, region.label, val)
            for frame, region, val in classify_frames(materials, frames)
            if val is not None]
    return min((val for _, _, val in rows), default=np.inf), rows
