"""Region classification, closed-form isotropic impedance, surface waves.

The boundary cotangent space splits into hyperbolic, mixed, and elliptic
regions according to the dimension of the evanescent subspace E_c of the
outgoing right root.  In the elliptic region the impedance is Hermitian
and its smallest eigenvalue decreases strictly in tau, which makes the
Rayleigh (and Stoneley) frequencies robust bisection targets.  The
elliptic interval ends at tau_eta (`tau_limit`), found by bisecting on
whether the spectrum is fully evanescent; those probes read the grouped
spectrum alone (`_fully_evanescent`), without kernels or sign forms.  The
root search is one bisection walk (`_walk`) on one bracket (`_Threshold`,
which keeps the value at each end): the search starts inside the elliptic
interval, at two probes in the edge variable sqrt(1 - tau/tau_eta), and
probes an end only where those leave its check open; where the bracket
leaves a midpoint open, inverse quadratic interpolation in that variable
(`_edge_secant`) narrows it first, so the bisection probes few midpoints of
its own and its root is that of the bisection alone.  Once the estimate of
the root decides every midpoint the walk has left, the narrowing closes the
bracket on the bisection's own answer, so the root's impedance is one that
a probe built and the solve kept.  A probe is a polynomial at the probed tau
and its outgoing factorization (`_outgoing_z`), with no `BoundarySide`; a
Stoneley probe factorizes its two polynomials as one stack.
Every other computation on one side of a boundary (polynomial, spectrum,
factorizations, impedances, projectors) goes through a `BoundarySide`.
"""
from __future__ import annotations

import itertools
import math
from contextlib import suppress
from dataclasses import dataclass

import numpy as np

from . import _lapack
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
    _dim_evanescent,
    _factorize,
    _polynomial_stacks,
    _spectra,
    boundary_polynomial,
    classify_spectrum,
    factorize,
)
from .impedance import (
    Impedance,
    ModeProjectors,
    _impedance,
    _mode_projectors,
    mode_projectors,
)
from .materials import Material, _check_instance, _real_array, decompose_harmonic

ANGLE_TOL = 1e-8        # principal angles with cosine above 1 - ANGLE_TOL count as shared
BISECTION_TOL = 1e-10   # bisections stop at this width relative to the upper end
EDGE_OFFSET = 1e-6      # surface-wave brackets end this far, relatively, below tau_eta
# u = sqrt(1 - tau/tau_eta) of a surface-wave search's first probe, then of its
# second where lambda_min > 0 at the first, else; an isotropic solid with lambda
# >= 0 has its Rayleigh root at u in (0.21, 0.355), as c_R/c_S lies in (0.874, 0.955)
START_U = (0.3, 0.15, 0.45)
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
        """Impedance matrix -i(A0 Q + A1) of the direction's factorization;
        z_in = z_out^H, without the incoming one: A(s) is Hermitian for real
        s, so Q_in = Q#_out^H."""
        if direction == "incoming":
            return self._once(("z", direction), lambda: self.z().conj().T)
        return self._once(("z", direction), lambda: _impedance(
            self.factorization(direction).a0_q, self.poly.a1))

    def projectors(self, direction: str = "outgoing") -> ModeProjectors:
        return self._once(("projectors", direction),
                          lambda: mode_projectors(self.factorization(direction)))


def _stacks(materials, frames: list) -> list:
    """(material, frames) of each side: [(m, frames)] for a boundary (one
    material), [(m+, frames), (m-, flipped frames)] for an interface (two
    materials), whose - side is seen from the flipped frame."""
    if isinstance(materials, Material):
        return [(materials, frames)]
    pair = isinstance(materials, (tuple, list)) and len(materials) == 2
    for m in materials if pair else [materials]:
        _check_instance(m, Material, "materials must be one Material or a pair (m+, m-) of them")
    frames = [_check_instance(f, BoundaryFrame, "frame must be a BoundaryFrame") for f in frames]
    return [(materials[0], frames), (materials[1], [frame.flipped() for frame in frames])]


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


def _region(sides, dims: tuple) -> RegionClass:
    """Region of a frame from its classified sides and their `_dims`; a
    mixed/mixed interface takes principal angles between the sides'
    evanescent subspaces."""
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
        cos_angles = _lapack.svdvals(bp.conj().T @ bm)
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
    sides = _sides(materials, frame)
    return _region(sides, _dims(sides))


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
    _check_instance(m, Material, "material must be a Material")
    _check_instance(frame, BoundaryFrame, "frame must be a BoundaryFrame")
    h = decompose_harmonic(m.stiffness)
    aniso = (np.linalg.norm(h.a) + np.linalg.norm(h.b) + np.linalg.norm(h.h))
    if aniso > ISOTROPY_TOL * max(m.stiffness.norm, 1e-300):
        raise InvalidInput("material is not isotropic")
    lam, mu, rho, tau = h.lam, h.mu, m.density, frame.tau
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
    it.  The tightest bracket (below, above) of the values it has taken, with
    the value at each end (f_below, f_above), answers, without running the
    test, whether t lies below the threshold.  `probes` lists the (t, value)
    of each test run, in order; `_bisect` keeps its walk's (lo, hi) in walk."""

    def __init__(self, test):
        self.test, self.below, self.above, self.probes = test, -np.inf, np.inf, []
        self.f_below = self.f_above = self.walk = None

    def __call__(self, t: float) -> bool:
        if self.below < t < self.above:
            return self.value(t) > 0
        return t <= self.below

    def value(self, t: float):
        v = self.test(t)
        self.probes.append((t, v))
        if v > 0:
            if t > self.below:
                self.below, self.f_below = t, v
        elif t < self.above:
            self.above, self.f_above = t, v
        return v


def _walk(lo: float, hi: float, below: float, above: float) -> tuple:
    """The bisection of [lo, hi] run on for as long as the bracket (below,
    above) answers its midpoints (one at or below `below` holds, one at or
    above `above` does not): the (lo, hi) where it stops, at the tolerance
    or at a midpoint the bracket leaves open."""
    while hi - lo > BISECTION_TOL * hi:
        mid = 0.5 * (lo + hi)
        if below < mid < above:
            break
        lo, hi = (mid, hi) if mid <= below else (lo, mid)
    return lo, hi


def _bisect(holds: _Threshold, lo: float, hi: float, narrowing=None) -> float:
    """Bisection of [lo, hi] on holds: the walk runs on through every
    midpoint holds' bracket answers; where it stops at an open midpoint, the
    iterator `narrowing` runs its next probe first, and the midpoint is
    probed itself only once `narrowing` is spent.  A bracket only tightens,
    so a midpoint it answers keeps its answer: the root is that of the
    bisection alone."""
    probes = narrowing or iter(())
    while True:
        holds.walk = lo, hi = _walk(lo, hi, holds.below, holds.above)
        if hi - lo <= BISECTION_TOL * hi:
            return 0.5 * (lo + hi)
        if next(probes, None) is None:
            holds(0.5 * (lo + hi))


def _limit_grid() -> tuple:
    """The 32 angles theta of `_limiting_tau`'s grid, np.linspace's interior
    points of [-pi/2, pi/2], with s s, s c and c c for s = sin theta and c =
    cos theta as (32, 1, 1) stacks, and cos^2 theta."""
    theta = (np.arange(34.0) * (np.pi / 33) - 0.5 * np.pi)[1:-1]
    cos = np.cos(theta)
    c, s = cos[:, None, None], np.sin(theta)[:, None, None]
    return theta, (s * s, s * c, c * c), cos ** 2


_LIMIT_GRID = _limit_grid()


def _limiting_tau(core, rho: float) -> float | None:
    """Barnett-Lothe limit tau_L, which places tau_limit's first two probes:
    rho tau_L^2 is the least f(t) = lambda_min(l(eta_hat + t nu)) over real t,
    from a grid over theta = atan t refined by `_newton_minimum`, or where
    that fails, the grid's least value (a hint: it only places probes)."""
    theta, (ss, sc, cc), cos_sq = _LIMIT_GRID
    l_xi = ss * core.a0.real + sc * core.a1_sym.real + cc * core.l_eta
    vals = _lapack.eigvalsh(l_xi)[:, 0] / cos_sq
    k = int(np.argmin(vals))
    least = _newton_minimum(core, theta[k], theta[max(k - 1, 0)], theta[min(k + 1, 31)])
    least = float(vals[k]) if least is None else least
    return math.sqrt(least / rho) if least > 0 else None


def _newton_minimum(core, theta: float, lo: float, hi: float) -> float | None:
    """Least f(t) = lambda_min(t^2 A0 + t (A1 + A1*) + l(eta_hat)) met by Newton
    steps from t = tan theta until one is <= 1e-9 (1 + |t|), f' and f'' by central
    differences on one eigvalsh stack at t, t +- h (eigenvector slopes fail at an
    isotropic double minimum); None if f'' <= 0, t leaves tan (lo, hi) or 8 pass."""
    t, lo, hi = np.tan([theta, lo, hi]).tolist()
    a0, a1, l_eta, least = core.a0.real, core.a1_sym.real, core.l_eta, math.inf
    for _ in range(8):
        h = 1e-4 * (1.0 + abs(t))
        ts = np.array([t - h, t, t + h])[:, None, None]
        f_lo, f_t, f_hi = _lapack.eigvalsh(ts * ts * a0 + ts * a1 + l_eta)[:, 0].tolist()
        least, curvature = min(least, f_lo, f_t, f_hi), f_hi - 2.0 * f_t + f_lo
        step = 0.5 * h * (f_lo - f_hi) / curvature if curvature > 0.0 else math.inf
        t += step
        if not lo < t < hi:     # also where the curvature (a Python float) is not positive
            return None
        if abs(step) <= 1e-9 * (1.0 + abs(t)):
            return least
    return None


def _fully_evanescent(a) -> bool:
    """Whether the spectrum of a polynomial has no real point and E_c is the
    whole space: `not has_real and dim_evanescent == 3` of its
    classification, read off its `_spectra` alone, without the kernels and
    sign forms at real points that the classification adds."""
    ((points, _, _),) = _spectra([a])
    return not any(is_real for _, _, is_real in points) and _dim_evanescent(points) == 3


def tau_limit(m: Material, nu: np.ndarray, eta_hat: np.ndarray) -> float:
    """Largest tau with a fully evanescent spectrum, by bisection.

    For isotropic media this is c_s |eta|; in general it is the limiting
    velocity of the slowest family along (nu, eta_hat).  Probes at (1 -+ 1e-12)
    times the Barnett-Lothe limit (`_limiting_tau`: one grid pass, then Newton
    steps) bracket it first; the bisection keeps its floats.  Each probe asks
    `_fully_evanescent` of the polynomial at tau: one Schur form, no kernels.
    """
    return _tau_limit(m, nu, eta_hat)[0]


def _tau_limit(m: Material, nu: np.ndarray, eta_hat: np.ndarray):
    """tau_limit, with the boundary polynomial at (nu, eta_hat, tau = -1)
    whose core its probes share, so that a surface-wave scan goes on from
    the same core.  The probes are polynomials, not sides: a spectrum alone
    answers them, so nothing is kept per probe.  InvalidInput where eta_hat
    is not a unit vector or (nu, eta_hat) builds no frame."""
    eta_hat = _real_array(eta_hat, (3,), "eta_hat must be a unit vector")
    if abs(math.hypot(*eta_hat) - 1.0) > 1e-10:
        raise InvalidInput("eta_hat must be a unit vector")

    poly = boundary_polynomial(m, BoundaryFrame(nu, eta_hat, -1.0))
    elliptic = _Threshold(lambda t: _fully_evanescent(poly.with_tau(-t)))
    t_l = _limiting_tau(poly.core, m.density)
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
    return _bisect(elliptic, lo, hi), poly


@dataclass(frozen=True)
class RayleighResult:
    """Surface-wave frequency along a unit tangential covector."""

    tau_r: float
    slowness: float              # |eta| / tau_r
    polarization: np.ndarray     # null vector of z (or z+ + z-) at tau_r
    tau_eta: float
    bracket: tuple
    det_residual: float          # |det z| / ||z||^3 at the root


def _lambda_min(zmat: np.ndarray) -> float:
    """Least eigenvalue of the Hermitian part of zmat."""
    return float(_lapack.eigvalsh(0.5 * (zmat + zmat.conj().T))[0])


def _closing_probe(walk: tuple, r: float, e: float, a: float, b: float) -> float | None:
    """The probe that closes the bracket (a, b) on the bisection's own answer,
    where the root lies within e of r: the walk's final midpoint tau_r where
    it lies in (a, b), else r + e or r - e, whichever lies on the far side of
    tau_r.  The walk runs on from its (lo, hi) (`_walk`), every midpoint up
    to max(a, r - e) holding and none from min(b, r + e) on; None where a
    midpoint lies between the two, which r leaves open."""
    below, above = max(a, r - e), min(b, r + e)
    if above - below > BISECTION_TOL * walk[1]:
        return None             # wider than the walk's last cell
    lo, hi = _walk(*walk, below, above)
    if hi - lo > BISECTION_TOL * hi:
        return None
    tau_r = 0.5 * (lo + hi)
    return tau_r if a < tau_r < b else above if tau_r <= a else below


def _edge_secant(holds: _Threshold, tau_eta: float):
    """Probes of holds.value that bracket and narrow the root of a surface-wave
    search on [1e-3, 1 - EDGE_OFFSET] tau_eta, placed in the edge variable
    u = sqrt(1 - t/tau_eta).  The first step, the interior start, probes
    u = START_U[0], then START_U[1] where the value there is positive, else
    START_U[2], and yields None: the solve then probes the ends whose checks
    these leave open.  Each later probe is yielded once run, until the
    bracket is 1e-13 (1 - EDGE_OFFSET) tau_eta wide, 100 probes have run or
    one raises a NumericalDomainError (in the start as later).  Each reads
    the bisection's walk (lo, hi) from holds.walk.

    lambda_min has a square-root branch at tau_eta, so in u it is nearly
    linear, and u as a parabola in lambda_min through the latest probe and
    the two probes nearest it (inverse quadratic interpolation) puts the
    root at r.  Where r leaves the bracket, the secant in u through the
    latest probe and the one nearest it does, or else regula falsi in u on
    the bracket's ends.  Where r, taken as the root to within one tolerance,
    answers every midpoint the walk has left, the step probes the walk's own
    answer (`_closing_probe`), so that the root's impedance is a probe's.
    Else it probes r, or, where r lies within half a tolerance of the latest
    probe, one tolerance past that probe, which closes the bracket around
    the root."""
    tol = 1e-13 * ((1.0 - EDGE_OFFSET) * tau_eta)

    def u(t: float) -> float:
        return math.sqrt(max(1.0 - t / tau_eta, 0.0))

    def zero(p: float, fp: float, q: float, fq: float) -> float:
        """t where the line in u through (p, fp) and (q, fq) crosses zero."""
        up, uq = u(p), u(q)
        root = uq - fq * (uq - up) / (fq - fp) if fq != fp else math.nan
        return tau_eta * (1.0 - root * root)

    def parabola_zero(o: float, fo: float, p: float, fp: float, q: float, fq: float) -> float:
        """t where u, as the parabola in f through (fo, u(o)), (fp, u(p)) and
        (fq, u(q)), takes f = 0; NaN where two values are equal."""
        if fo == fp or fo == fq or fp == fq:
            return math.nan
        root = (u(o) * fp * fq / ((fo - fp) * (fo - fq)) + u(p) * fo * fq / ((fp - fo) * (fp - fq))
                + u(q) * fo * fp / ((fq - fo) * (fq - fp)))
        return tau_eta * (1.0 - root * root)

    with suppress(NumericalDomainError):
        first = holds.value(tau_eta * (1.0 - START_U[0] ** 2))
        holds.value(tau_eta * (1.0 - START_U[1 if first > 0 else 2] ** 2))
        yield None
        for _ in range(100):
            a, fa, b, fb = holds.below, holds.f_below, holds.above, holds.f_above
            if b - a <= tol:
                return
            # q the latest probe, p and o the probes nearest it; no o yet: r is NaN
            last = holds.probes[-1][0]
            nearest = sorted(holds.probes, key=lambda probe: abs(probe[0] - last))
            (q, fq), (p, fp), (o, fo) = (nearest + [(math.nan, math.nan)])[:3]
            r = parabola_zero(o, fo, p, fp, q, fq)
            if not a < r < b:
                r = zero(p, fp, q, fq)
            if not a < r < b:
                r = zero(a, fa, b, fb)
            c = _closing_probe(holds.walk, r, tol, a, b) if a < r < b else None
            if c is None:
                c = (q + tol if fq > 0 else q - tol) if abs(r - q) < 0.5 * tol else r
            if not a < c < b:
                c = 0.5 * (a + b)
            holds.value(c)
            yield c


def _surface_wave_bisect(zfun, tau_eta: float) -> RayleighResult:
    """Root of lambda_min(zfun(tau)) by bisection on [1e-3, 1 - EDGE_OFFSET]
    tau_eta, with `_edge_secant` bracketing the root from inside the
    interval and narrowing the bracket wherever a midpoint is open.
    lambda_min decreases strictly in tau, so an interior probe where it is
    positive settles the low end's check and one where it is not settles
    the high end's: an end is probed only where the interior start leaves
    its check open (both ends, where its first probe fails, as when the
    narrowing is patched out).  The bisection reads only
    the sign of lambda_min at its own midpoints, so the root is that of a
    plain bisection; the narrowing leaves it few midpoints to probe itself
    (usually none) and mostly closes the bracket on the bisection's own
    answer tau_r.  Each probe's z is kept by tau for the length of the
    solve, so z(tau_r), which gives the polarization and det_residual, is
    built again only where no probe was at tau_r.

    GlancingLimit where a probed end glances.  NoSurfaceWave where
    lambda_min stays positive up to the high end, or where it is not
    positive at the low end: that frame does not glance, and its impedance
    is indefinite, as for a strongly elliptic material that is not strongly
    convex (isotropic lambda <= -mu has no subsonic Rayleigh wave)."""
    t_lo = 1e-3 * tau_eta
    t_hi = (1.0 - EDGE_OFFSET) * tau_eta
    zs = {}

    def probe(t: float) -> float:
        zs[t] = zmat = zfun(t)
        return _lambda_min(zmat)

    holds = _Threshold(probe)
    narrowing = _edge_secant(holds, tau_eta) or iter(())
    next(narrowing, None)       # the interior start
    lo_open, hi_open = holds.f_below is None, holds.f_above is None
    try:
        f_lo = holds.value(t_lo) if lo_open else holds.f_below
        f_hi = holds.value(t_hi) if hi_open else holds.f_above
    except GlancingSpectrum as exc:
        raise GlancingLimit(f"cannot evaluate near tau_eta: {exc}") from exc
    if f_lo <= 0:
        raise NoSurfaceWave("impedance not positive definite at the low endpoint of "
                            "the elliptic interval: no surface wave is bracketed")
    if f_hi > 0:
        raise NoSurfaceWave("smallest impedance eigenvalue stays positive "
                            "on the elliptic interval")
    tau_r = _bisect(holds, t_lo, t_hi, narrowing)
    zr = zs[tau_r] if tau_r in zs else zfun(tau_r)
    vec = _lapack.eigh(0.5 * (zr + zr.conj().T))[1][:, 0]
    det_res = float(abs(_lapack.det(zr)) / max(np.linalg.norm(zr) ** 3, 1e-300))
    return RayleighResult(tau_r, 1.0 / tau_r, vec, tau_eta, (t_lo, t_hi), det_res)


def _outgoing_z(a, classification=None) -> np.ndarray:
    """The outgoing impedance matrix of a polynomial, through the public
    factorize: bit for bit what a BoundarySide at its frame gives (`z`),
    without the side."""
    return _impedance(factorize(a, classification=classification).a0_q, a.a1)


def rayleigh_speed(m: Material, nu: np.ndarray, eta_hat: np.ndarray) -> RayleighResult:
    """Free-surface (Rayleigh) frequency: the zero of lambda_min(z).

    lambda_min decreases strictly in tau on the elliptic interval, so the
    sign change, when present, has a unique root.
    """
    tau_eta, poly = _tau_limit(m, nu, eta_hat)
    return _surface_wave_bisect(lambda t: _outgoing_z(poly.with_tau(-t)), tau_eta)


def stoneley_speed(m_plus: Material, m_minus: Material, nu: np.ndarray,
                   eta_hat: np.ndarray) -> RayleighResult:
    """Interface (Stoneley) frequency: the zero of lambda_min(z+ + z-).

    Each probe classifies and factorizes its (+, -) polynomials as one
    stack, bit for bit what each builds alone.  Where the stack raises, each
    side is factorized alone, + side first, from the stack's classifications
    if those were built: the error is the one the + side, then the - side,
    raises first (the rule of `classify_frames`).
    """
    tau_plus, plus = _tau_limit(m_plus, nu, eta_hat)
    tau_minus, minus = _tau_limit(m_minus, nu, eta_hat)
    tau_eta, minus = min(tau_plus, tau_minus), boundary_polynomial(m_minus, minus.frame.flipped())

    def zfun(t: float) -> np.ndarray:
        polys, classes = [plus.with_tau(-t), minus.with_tau(-t)], [None, None]
        with suppress(ElasticError):    # then each side alone, below
            classes = _classify(polys)
            f_plus, f_minus = _factorize(polys, classes, "outgoing", [-t, -t])
            return _impedance(f_plus.a0_q, polys[0].a1) + _impedance(f_minus.a0_q, polys[1].a1)
        return _outgoing_z(polys[0], classes[0]) + _outgoing_z(polys[1], classes[1])

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


def _stacked_factorizations(sides: list) -> None:
    """Store on each side that lacks one its outgoing factorization and that
    factorization's z, solved for all those sides as one stack and bit for
    bit what each side builds alone."""
    sides = [s for s in sides if ("factorization", "outgoing") not in s._built]
    if sides:
        facts = _factorize([s.poly for s in sides], [s.classification for s in sides],
                           "outgoing", [s.frame.tau for s in sides])
        z = _impedance(np.array([f.a0_q for f in facts]), np.array([s.poly.a1 for s in sides]))
        for side, f, z_side in zip(sides, facts, z):
            side._built.update({("factorization", "outgoing"): f, ("z", "outgoing"): z_side})


def _stacked_projectors(sides: list) -> None:
    """Store on each side that lacks them its outgoing mode projectors, built
    as one stack and bit for bit what each side builds alone."""
    due = [side for side in dict.fromkeys(sides) if ("projectors", "outgoing") not in side._built]
    if due:
        for side, projectors in zip(due, _mode_projectors([side.factorization() for side in due])):
            side._built["projectors", "outgoing"] = projectors


def _solve_frames(materials, frames: list) -> list:
    """(region, margin) of each frame from its sides, built as stacks with
    outgoing factorizations on the frames that have a margin.  The + side's
    stack is factorized, to its root checks, before the - side's, so a pair
    at one frame fails as its + side, then its - side, would."""
    sides = _stacked_sides(_stacks(materials, frames))
    rows = list(zip(*sides))
    dims = [_dims(row) for row in rows]
    due = [j for j, row_dims in enumerate(dims) if _has_margin(row_dims)]
    margins = dict.fromkeys(range(len(frames)))
    if due:     # sigma_min / sigma_max of z, or of z+ + z- for a pair
        for stack in sides:
            _stacked_factorizations([stack[j] for j in due])
        z = sum(np.array([stack[j].z() for j in due]) for stack in sides)
        sv = _lapack.svdvals(z)
        margins.update(zip(due, (sv[:, -1] / np.maximum(sv[:, 0], 1e-300)).tolist()))
    return [(_region(row, row_dims), margins[j])
            for j, (row, row_dims) in enumerate(zip(rows, dims))]


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
