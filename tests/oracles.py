"""Independent oracles used by the test suite.

Most are classical closed-form results implemented without reference to
the library internals, so agreement is a genuine cross-check.  The rest
are reference loops that a faster library path must reproduce exactly.
"""
import json
import math

import numpy as np

from elaswave import _lapack
from elaswave.acoustic import cluster_sorted
from elaswave.boundary import (
    BISECTION_TOL,
    EDGE_OFFSET,
    BoundarySide,
    RayleighResult,
    _dims,
    _region,
    _sides,
    _surface_wave_bisect,
)
from elaswave import factorization as fz
from elaswave.errors import (
    GlancingLimit,
    GlancingSpectrum,
    InvalidInput,
    NoSurfaceWave,
    NumericalDomainError,
)
from elaswave.factorization import BoundaryFrame


def rayleigh_secular_speed(lam: float, mu: float, rho: float,
                           tol: float = 1e-14) -> float:
    """Isotropic Rayleigh speed from the classical secular equation.

    Solves (2 - x^2)^2 = 4 sqrt(1 - x^2) sqrt(1 - kappa^2 x^2) for
    x = c_R/c_s with kappa = c_s/c_p, by bisection on the subsonic interval
    (0, min(1, c_p/c_s)).  Near 0+ the secular function is
    -2 (1 - kappa^2) x^2 + O(x^4), negative for kappa < 1, so only the upper
    end's sign is evaluated.
    """
    cs = math.sqrt(mu / rho)
    cp = math.sqrt((lam + 2.0 * mu) / rho)
    k2 = (cs / cp) ** 2

    def f(x):
        return rayleigh_secular(x, k2)

    lo, hi = 0.0, min(1.0, cp / cs) * (1.0 - 1e-12)
    assert k2 < 1.0 and f(hi) > 0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi) * cs


def rayleigh_secular(x, k2):
    """(2 - x^2)^2 - 4 sqrt(1 - x^2) sqrt(1 - k2 x^2), x = c/c_s, k2 = (c_s/c_p)^2."""
    return (2.0 - x * x) ** 2 - 4.0 * np.sqrt(1.0 - x * x) * np.sqrt(1.0 - k2 * x * x)


def rayleigh_secular_roots(lam: float, mu: float, rho: float, n: int = 200_000) -> list:
    """Speeds c at which the secular function changes sign, each to within
    one step of an n-point grid of x = c/c_s over the subsonic interval
    (0, min(c_s, c_p)/c_s); for lambda < -mu, c_p < c_s.  Values within
    1e-12 of zero, below which roundoff decides the sign (at lambda = -mu
    the function is x^4), are skipped."""
    cs = math.sqrt(mu / rho)
    k2 = mu / (lam + 2.0 * mu)
    x = np.linspace(0.0, min(1.0, 1.0 / math.sqrt(k2)), n + 2)[1:-1]
    f = rayleigh_secular(x, k2)
    x, sign = x[np.abs(f) > 1e-12], np.sign(f[np.abs(f) > 1e-12])
    cross = np.flatnonzero(sign[1:] != sign[:-1])
    return [0.5 * (x[k] + x[k + 1]) * cs for k in cross]


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


# --- a surface-wave root by bisection alone ------------------------------------

def surface_wave_bisection(zfun, tau_eta: float):
    """Root of lambda_min(zfun(tau)) on [1e-3, 1 - EDGE_OFFSET] tau_eta by
    plain bisection: both ends probed first, with the library's checks and
    messages, then every midpoint, then z built again at the root for its
    polarization and det_residual.  The library's search, which starts
    inside the interval and probes estimates of the root, must give the
    same floats and errors."""
    t_lo, t_hi = 1e-3 * tau_eta, (1.0 - EDGE_OFFSET) * tau_eta

    def lambda_min(t: float) -> float:
        z = zfun(t)
        return float(_lapack.eigvalsh(0.5 * (z + z.conj().T))[0])

    try:
        f_lo, f_hi = lambda_min(t_lo), lambda_min(t_hi)
    except GlancingSpectrum as exc:
        raise GlancingLimit(f"cannot evaluate near tau_eta: {exc}") from exc
    if f_lo <= 0:
        raise NoSurfaceWave("impedance not positive definite at the low endpoint of "
                            "the elliptic interval: no surface wave is bracketed")
    if f_hi > 0:
        raise NoSurfaceWave("smallest impedance eigenvalue stays positive "
                            "on the elliptic interval")
    lo, hi = t_lo, t_hi
    while hi - lo > BISECTION_TOL * hi:
        mid = 0.5 * (lo + hi)
        if lambda_min(mid) > 0:
            lo = mid
        else:
            hi = mid
    tau_r = 0.5 * (lo + hi)
    z = zfun(tau_r)
    vec = _lapack.eigh(0.5 * (z + z.conj().T))[1][:, 0]
    det_res = float(abs(_lapack.det(z)) / max(np.linalg.norm(z) ** 3, 1e-300))
    return RayleighResult(tau_r, 1.0 / tau_r, vec, tau_eta, (t_lo, t_hi), det_res)


# --- the Barnett-Lothe limit by grid zooms alone ------------------------------

def limiting_tau_zoom(core, rho: float, zooms: int = 6, points: int = 32):
    """tau_L with rho tau_L^2 the least lambda_min(l(eta_hat + t nu)) over real
    t, by zooms alone: `points` angles theta = atan t inside (-pi/2, pi/2),
    then `zooms - 1` times as many inside the cell around the least value so
    far.  With zooms=1 this is, bit for bit, boundary._limiting_tau where its
    Newton step fails; more points and zooms give a fine reference, which
    Newton's steps are checked against."""
    lo, hi = -0.5 * np.pi, 0.5 * np.pi
    for _ in range(zooms):
        theta = (np.arange(points + 2.0) * ((hi - lo) / (points + 1)) + lo)[1:-1]
        cos = np.cos(theta)
        c, s = cos[:, None, None], np.sin(theta)[:, None, None]
        l_xi = s * s * core.a0.real + s * c * core.a1_sym.real + c * c * core.l_eta
        vals = np.linalg.eigvalsh(l_xi)[:, 0] / cos ** 2
        k = int(np.argmin(vals))
        lo, hi = theta[max(k - 1, 0)], theta[min(k + 1, points - 1)]
    return float(np.sqrt(vals[k] / rho)) if vals[k] > 0 else None


# --- frame grids, one frame after another ------------------------------------

def classify_with_margin_per_frame(materials, frames) -> list:
    """(region, margin) of each frame by a loop over the frames, the way
    classify_frames went before frames were solved as stacks: each frame's
    sides are built, classified, labelled and, off the elliptic region,
    factorized on their own, and the first frame that fails raises."""
    rows = []
    for frame in frames:
        sides = _sides(materials, frame)
        region = _region(sides, _dims(sides))
        if region.label not in ("hyperbolic", "mixed"):
            rows.append((region, None))
            continue
        z = sum(side.z() for side in sides)
        sv = np.linalg.svd(z, compute_uv=False)
        rows.append((region, float(sv[-1] / max(sv[0], 1e-300))))
    return rows


# --- one polynomial at a time ------------------------------------------------
# The bodies that stroh, classify_spectrum and factorize had before every
# spectral stage ran on stacks: the same rules, with each polynomial's linear
# algebra on its own matrices through np.linalg.  The Stroh matrix, the
# selection of the target eigenvalues, Q, Q#, A0 Q and the solvency residual
# are formed here from the polynomial's coefficients, not by the library's
# helpers.  The library's stacks of one must give the same bits.

def stroh_one(a) -> np.ndarray:
    a0inv, a1h = np.linalg.inv(a.a0), a.a1.conj().T
    s = np.empty((6, 6), dtype=complex)
    s[:3, :3] = -a0inv @ a.a1
    s[:3, 3:] = a0inv
    s[3:, :3] = -a.a2 + a1h @ a0inv @ a.a1
    s[3:, 3:] = -a1h @ a0inv
    return s


def kernel_basis_one(a, s) -> np.ndarray:
    _, sv, vh = np.linalg.svd(a(s))
    return vh[3 - fz._nullity(sv.tolist(), a.scale):].conj().T


def group_numpy_scalars(vals: np.ndarray, norm: float) -> list:
    """factorization._group's rule on numpy's complex scalars: points sorted
    by numpy's complex sort, clustered (`cluster_sorted`) within
    GROUPING_TOL (1 + norm), or 1e3 eps norm where that is larger, of a
    group's mean, and a group real where its mean's |Im| is within the
    first.  `_group` clusters Python complex numbers and must give these
    groups bit for bit."""
    vals = vals.copy()
    vals.sort()
    tol_real = fz.GROUPING_TOL * (1.0 + norm)
    groups = []
    for idx, mean in cluster_sorted(vals, max(tol_real, 1e3 * np.finfo(float).eps * norm)):
        mean = complex(mean)
        is_real = abs(mean.imag) <= tol_real
        groups.append((complex(mean.real) if is_real else mean, len(idx), is_real))
    return groups


def classify_spectrum_one(a):
    s6 = stroh_one(a)
    if not np.isfinite(s6).all():
        raise NumericalDomainError("Stroh matrix is not finite")
    t, z = fz._schur(s6)
    norm = float(np.linalg.norm(s6))
    groups = []
    for value, alg, is_real in group_numpy_scalars(np.diag(t), norm):
        kern = sign = form = None
        if is_real:
            kern = kernel_basis_one(a, value)
            if kern.shape[1]:
                da = a.derivative(value.real)
                form = kern.conj().T @ da @ kern
                eigs = np.linalg.eigvalsh(0.5 * (form + form.conj().T))
                sign = fz._sign_type(eigs[0], eigs[-1], np.linalg.norm(da))
        groups.append(fz._record(fz.EigenvalueGroup,
                                 fz._group_fields(value, alg, kern, sign, form)))
    return fz._record(fz.SpectrumClassification, groups=tuple(groups), stroh_norm=norm,
                      schur=(t, z))


def factorize_one(a, direction="outgoing", tau=None, classification=None):
    if tau is None:
        if a.frame is None:
            raise InvalidInput("tau is required when the polynomial carries no frame")
        tau = a.frame.tau
    if classification is None:
        classification = classify_spectrum_one(a)
    sigma, targets, match_tol = fz._target(classification, direction, tau)
    t, zvec = classification.schur
    distances = np.abs(np.diag(t)[:, None] - np.array(targets)[None, :])
    t, zvec = fz._reorder(t, zvec, np.min(distances, axis=1) <= 10 * match_tol)
    x1 = zvec[:3, :3]
    fz._check_condition(np.linalg.cond(x1))
    q = x1 @ t[:3, :3] @ np.linalg.inv(x1)
    a0_q = a.a0 @ q
    q_sharp = -(a0_q + a.a1_sym) @ np.linalg.inv(a.a0)
    eq, es = np.linalg.eigvals(q), np.linalg.eigvals(q_sharp)
    residual = float(np.linalg.norm(a0_q @ q + a.a1_sym @ q + a.a2) / a.scale)
    size = max(np.max(np.abs(eq)), np.max(np.abs(es)), 1e-300)
    fz._check_roots(residual, np.min(np.abs(eq[:, None] - es[None, :])), size)
    return fz.SpectralFactorization(q, q_sharp, tuple(sigma), direction, float(tau), a,
                                    classification, eq, residual, a0_q)


# --- residue of A(z)^-1 at a real eigenvalue, by contour quadrature ----------

class NotAnEigenvalue(NumericalDomainError):
    pass


class DefectiveEigenvalue(NumericalDomainError):
    pass


def residue(a, s: float, radius: float | None = None, n_nodes: int = 256,
            classification=None) -> np.ndarray:
    """Residue of A(z)^{-1} at a semisimple real eigenvalue, by contour quadrature.

    The result is Hermitian, supported on ker A(s), and semidefinite with the
    sign of the eigenvalue's type.
    """
    if classification is None:
        classification = fz.classify_spectrum(a)
    tol = fz.GROUPING_TOL * (1.0 + classification.stroh_norm)
    group = None
    for g in classification.groups:
        if g.is_real and abs(g.value.real - s) <= max(tol, fz.GROUPING_TOL * (1 + abs(s))):
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
    e = radius * np.exp(2j * np.pi * np.arange(n_nodes) / n_nodes)
    inv = np.linalg.inv(a((group.value.real + e)[:, None, None]))
    r = np.einsum("n,nij->ij", e / n_nodes, inv)
    return 0.5 * (r + r.conj().T)


# --- CLI JSON text ------------------------------------------------------------

def _fmt17(x) -> str:
    return format(float(x), ".17g")


def jsonable(obj):
    """Recursively render floats at fixed 17-significant-digit precision."""
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, complex) or isinstance(obj, np.complexfloating):
        return {"re": _fmt17(obj.real), "im": _fmt17(obj.imag)}
    if isinstance(obj, (float, np.floating)):
        return _fmt17(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return jsonable(obj.tolist())
    return obj


def render_json_dumps(doc) -> str:
    """The CLI's JSON text through json's own encoder: the reference that
    `cli.render_json` reproduces byte for byte."""
    return json.dumps(jsonable(doc), indent=2, sort_keys=True) + "\n"
