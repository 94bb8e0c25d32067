"""Boundary symbol polynomial, its linearization, and spectral factorization.

For a boundary frame (nu, eta, tau) the displacement symbol along the
interior normal is the self-adjoint quadratic matrix polynomial

    A(s) = A0 s^2 + (A1 + A1*) s + A2,

with A0 = nu.C.nu positive definite, A1^{ik} = nu_j C^{ijkm} eta_m, and
A2 = l(eta) - rho tau^2.  Its 6x6 linearization carries displacement and
traction traces; invariant subspaces of the linearization give right/left
roots Q, Q# with A(s) = (s - Q#) A0 (s - Q), split by outgoing/incoming
spectra.  Its decompositions (Schur, SVD, eigenvalues, inverses) are
reached through `_lapack`, those of the contour oracle through np.linalg.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from itertools import islice, repeat

import numpy as np

from . import _lapack
from .acoustic import cluster_sorted
from .errors import (
    CoefficientOverflow,
    ContourTooClose,
    DegenerateA0,
    GlancingSpectrum,
    IllConditionedJ,
    InvalidInput,
    NumericalDomainError,
    QuadratureNotConverged,
    SigmaCardinality,
    SolvencyResidual,
)
from .materials import Material, _check_instance, _is_real, _real_array

# The spectral decision of every frame rests on these fixed tolerances.
KERNEL_TOL = 1e-6        # SVD cutoff of ker A(s), relative to its largest singular value
GROUPING_TOL = 1e-8      # eigenvalues closer than this times (1 + ||S||) are one point;
                         # an |Im s| below it makes the point real
GLANCING_TOL = 1e-6      # a sign form on ker A(s) smaller than this times ||A'(s)|| glances
MAX_J_CONDITION = 1e10   # largest cond(X1) of the invariant subspace's displacement block
CONTOUR_NODES = 256      # first node count of the contour oracle, which doubles it
CONTOUR_TOL = 1e-10      # until its two integrals change by less than this in all
CONTOUR_MAX_NODES = 1 << 16  # and raises QuadratureNotConverged past this count


def _check_tau(tau) -> None:
    """InvalidInput unless tau is a finite, nonzero real number (not a bool)."""
    if not _is_real(tau):
        raise InvalidInput(f"tau must be a real number, got {tau!r}")
    if not math.isfinite(tau) or tau == 0:
        raise InvalidInput("frame must be finite" if tau else "tau must be nonzero")


def _frame_vector(v, nu=None) -> np.ndarray:
    """v as a frame's nu, or as its eta where nu is given (`_real_array`);
    InvalidInput where that eta is not orthogonal to nu."""
    v = _real_array(v, (3,), "nu and eta must be vectors of shape (3,)", "frame must be finite")
    if nu is not None and abs(nu @ v) > 1e-12 * max(float(np.abs(v).max()), 1.0):
        raise InvalidInput("eta must be tangential (orthogonal to nu)")
    return v


@dataclass(frozen=True)
class BoundaryFrame:
    """Unit interior conormal nu, tangential covector eta, frequency tau."""

    nu: np.ndarray
    eta: np.ndarray
    tau: float

    def __post_init__(self):
        nu = _frame_vector(self.nu)
        _check_tau(self.tau)
        if abs(math.hypot(*nu) - 1.0) > 1e-12:
            raise InvalidInput("conormal must be a unit vector")
        object.__setattr__(self, "nu", nu)
        object.__setattr__(self, "eta", _frame_vector(self.eta, nu))

    def with_tau(self, tau: float) -> "BoundaryFrame":
        """This frame at another tau; only tau is checked, nu and eta are kept."""
        _check_tau(tau)
        return _record(BoundaryFrame, nu=self.nu, eta=self.eta, tau=tau)

    def with_eta(self, eta: np.ndarray) -> "BoundaryFrame":
        """This frame at another eta; only eta is checked, nu and tau are kept."""
        return _record(BoundaryFrame, nu=self.nu, eta=_frame_vector(eta, self.nu), tau=self.tau)

    def flipped(self) -> "BoundaryFrame":
        """Frame of the opposite side of an interface (conormal negated);
        negating nu keeps every check, so none runs again."""
        nu = -self.nu
        nu.setflags(write=False)
        return _record(BoundaryFrame, nu=nu, eta=self.eta, tau=self.tau)


# --- stacks ------------------------------------------------------------------
# Each step below runs on a stack (leading axis: one entry per polynomial or
# eigenvalue group), so that a list of frames is solved with a few numpy
# calls; one polynomial is the stack of one.  numpy's stacked LAPACK and
# matmul calls give each entry bit for bit what a call on it alone gives.

_VECDOT = getattr(np, "vecdot", None)     # numpy >= 2


def _herm(x: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each matrix of a stack."""
    return x.conj().swapaxes(-1, -2)


def _fro(x: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a stack, bit for bit np.linalg.norm's
    for the matrix alone: the dot products of its real and of its imaginary
    parts by numpy's dot loop, which np.vecdot runs per row (numpy 1.x, with
    no vecdot, as one-row matrix products), or for a stack of one directly."""
    if len(x) == 1:     # math.sqrt rounds as np.sqrt does
        flat = x[0].ravel(order="K")
        re, im = flat.real, flat.imag
        return np.array([math.sqrt(re.dot(re) + im.dot(im))])
    flat = x.reshape(len(x), -1)
    re, im = flat.real, flat.imag
    if _VECDOT is None:
        re, im = re[:, None], im[:, None]
        return np.sqrt((re @ re.swapaxes(1, 2) + im @ im.swapaxes(1, 2))[:, 0, 0])
    return np.sqrt(_VECDOT(re, re) + _VECDOT(im, im))


def _record(cls, fields=None, **named):
    """An instance of a frozen dataclass without a __post_init__ whose
    __dict__ is `fields`, a dict of its fields in order that nothing else
    holds, or the named fields: what the generated __init__ does, for less."""
    obj = object.__new__(cls)
    object.__setattr__(obj, "__dict__", named if fields is None else fields)
    return obj


def _records(cls, rows: list) -> tuple:
    """`_record(cls, row)` for each row of rows, mapped in one pass."""
    objs = tuple(map(object.__new__, repeat(cls, len(rows))))
    list(map(object.__setattr__, objs, repeat("__dict__"), rows))
    return objs


def _at(a0, a1_sym, a2, s):
    """A(s) = A0 s^2 + (A1 + A1*) s + A2."""
    return a0 * s * s + a1_sym * s + a2


def _slope(a0, a1_sym, s):
    """A'(s) = 2 s A0 + A1 + A1*."""
    return 2.0 * s * a0 + a1_sym


_EYE = np.eye(3)
_EPS = np.finfo(float).eps


def _a2(l_eta, rho_tau_sq):
    """A2 = l(eta) - rho tau^2 I, for one rho tau^2 or a stack of them shaped
    (n, 1, 1).  tau^2 is taken as tau ** 2, which (C pow) can differ from
    tau * tau in the last bit."""
    return l_eta - rho_tau_sq * _EYE


class _SymbolCore:
    """The tau-independent half of A(s), shared along one (material, nu, eta):
    A0, A1, A1 + A1*, the norms of A0 and A1, A0's asymmetry and smallest
    eigenvalue, l(eta) with the coefficient size without tau and the
    asymmetry ||l(eta) - l(eta)*||, A0^-1 and the Stroh template: the Stroh
    matrix without A2, whose lower-left block holds A1* A0^-1 A1.  The
    arrays are read-only; `_polynomial_rows` builds the cores, those of a
    stack at once, and the flipped frame (-nu, eta) gets a core of its own.
    Every A2 = l(eta) - rho tau^2 I has the asymmetry of l(eta), bit for
    bit: the diagonal of A2 - A2* cancels to 0 and the rest is that of
    l(eta) - l(eta)*."""


def _polynomial_rows(a0, a1, a2, a0_asymmetry, a2_asymmetry, a1_sym, frames: list,
                     rhos: list, l_eta=None, sizes=None) -> list:
    """The fields of the QuadraticMatrixPolynomial of each frame and rho, each
    on a _SymbolCore of its own, from n-entry stacks of A0, A1, A2, A0 - A0*,
    A2 - A2* and A1 + A1*, real or complex: one complex copy of them, every
    norm from one `_fro` stack, A0's least eigenvalues, A0^-1 and the Stroh
    templates as stacks.  With l(eta) and the coefficient sizes they are
    boundary polynomials.  The checks run in the stack's order: A0 finite for
    every entry, then each entry's `_polynomial_fields`."""
    n = len(frames)
    stack = np.concatenate((a0, a1, a2, a0_asymmetry, a2_asymmetry, a1_sym), dtype=complex)
    stack.setflags(write=False)
    norm0, norm1, norm2, asymmetry, a2_asymmetry = _fro(stack[:5 * n]).reshape(5, n).tolist()
    a0, a1, a2, a1_sym = stack[:n], stack[n:2 * n], stack[2 * n:3 * n], stack[5 * n:]
    # a finite norm has finite entries; an infinite or NaN one sends A0 to the full check
    if not all(map(math.isfinite, norm0)) and not np.isfinite(a0).all():
        raise NumericalDomainError("A0 is not finite")
    a0_min = _lapack.eigvalsh(a0)[:, 0].tolist()
    # A0^-1 and the Stroh templates, with blocks -A0^-1 A1, A0^-1 (top) and A1* A0^-1 A1,
    # -A1* A0^-1 (bottom), read-only; where an A0 is not positive definite or has no
    # inverse, its polynomial fails to settle
    a0inv = templates = repeat(None)
    if min(a0_min) > 0:
        try:
            a0inv, a1h = _lapack.inv(a0), _herm(a1)
            templates = np.empty((n, 6, 6), dtype=complex)
            np.matmul(-a0inv, a1, out=templates[:, :3, :3])
            templates[:, :3, 3:] = a0inv
            np.matmul(a1h @ a0inv, a1, out=templates[:, 3:, :3])
            np.matmul(-a1h, a0inv, out=templates[:, 3:, 3:])
            a0inv.setflags(write=False)
            templates.setflags(write=False)
        except np.linalg.LinAlgError:
            pass
    l_asymmetry = a2_asymmetry
    if l_eta is None:       # a polynomial not built from a material
        l_eta = sizes = l_asymmetry = repeat(None)
    cores = _records(_SymbolCore, [
        {"a0": x0, "a1": x1, "a1_sym": sym, "norms": (n0, n1), "a0_asymmetry": asym,
         "a0_min": least, "l_eta": l, "size": size, "l_asymmetry": l_asym, "a0inv": inv,
         "stroh": template}
        for x0, x1, sym, n0, n1, asym, least, l, size, l_asym, inv, template in zip(
            a0, a1, a1_sym, norm0, norm1, asymmetry, a0_min, l_eta, sizes, l_asymmetry, a0inv,
            templates)])
    return list(map(_polynomial_fields, cores, a2, frames, rhos, norm2, a2_asymmetry))


def _coefficient_size(stiffness_norm: float, frame: BoundaryFrame) -> float:
    """Size of the coefficients of A(s) without tau, ||C|| (1 + max |eta_i|)^2."""
    eta = 1.0 + max(map(abs, frame.eta.tolist()))
    return stiffness_norm * eta * eta


def _check_overflow(size: float, rho: float, tau: float) -> None:
    """Coefficients past 1e150 would overflow once squared (in norms and in
    the Stroh block A1* A0^-1 A1): raise CoefficientOverflow."""
    tau = abs(float(tau))
    size = size + float(rho) * tau * tau
    if not size <= 1e150:
        raise CoefficientOverflow(f"boundary polynomial coefficients of size {size:.3g} "
                                  "exceed 1e150")


def _check_entries(*coefficients) -> None:
    """_check_overflow on the largest entry; a NaN is left for classify_spectrum to reject."""
    entries = np.abs(np.concatenate([np.ravel(c) for c in coefficients]))
    _check_overflow(np.fmax.reduce(entries, initial=0.0), 0.0, 0.0)


def _polynomial_fields(core: _SymbolCore, a2, frame, rho, a2_norm, a2_asymmetry) -> dict:
    """The fields of the polynomial with A2 on a core, once it passes its
    checks: A0 and A2 Hermitian to 1e-12 of its scale (its largest
    coefficient norm), A0 positive definite."""
    scale = max(*core.norms, a2_norm, 1e-300)
    if core.a0_asymmetry > 1e-12 * scale:
        raise InvalidInput("A0 must be Hermitian")
    if a2_asymmetry > 1e-12 * scale:
        raise InvalidInput("A2 must be Hermitian")
    if core.a0_min <= 0:
        raise DegenerateA0("A0 must be positive definite")
    return {"a0": core.a0, "a1": core.a1, "a2": a2, "frame": frame, "rho": rho, "core": core,
            "a1_sym": core.a1_sym, "scale": scale}


def _settled(core: _SymbolCore, a2: np.ndarray, frame, rho, asymmetry=None):
    """The polynomial on a core with A2 (3 x 3, complex, no other holder).
    ||A2 - A2*|| is taken here, unless `asymmetry` gives it (that of
    l(eta), for an A2 formed from its core)."""
    if asymmetry is None:
        norm, asymmetry = _fro(np.array((a2, a2 - _herm(a2)))).tolist()
    else:
        (norm,) = _fro(a2[None]).tolist()
    a2.setflags(write=False)
    return _record(QuadraticMatrixPolynomial, _polynomial_fields(core, a2, frame, rho, norm,
                                                                 asymmetry))


@dataclass(frozen=True)
class QuadraticMatrixPolynomial:
    """Coefficients of A(s) = A0 s^2 + (A1 + A1*) s + A2, A0 > 0, A2 = A2*.

    What does not involve A2 lives in `core`, which `with_tau` and
    `with_a2` share; so does A1 + A1* (`a1_sym`).  `scale` is the largest
    coefficient norm.  Like the fields, both are read-only.
    """

    a0: np.ndarray
    a1: np.ndarray
    a2: np.ndarray
    frame: BoundaryFrame | None = None
    rho: float | None = None

    def __post_init__(self):
        _check_entries(self.a0, self.a1, self.a2)
        a0, a1, a2 = (np.array(c, dtype=complex, ndmin=3) for c in (self.a0, self.a1, self.a2))
        vars(self).update(_polynomial_rows(a0, a1, a2, a0 - _herm(a0), a2 - _herm(a2),
                                           a1 + _herm(a1), [self.frame], [self.rho])[0])

    def __call__(self, s: complex) -> np.ndarray:
        return _at(self.a0, self.a1_sym, self.a2, s)

    def derivative(self, s: complex) -> np.ndarray:
        return _slope(self.a0, self.a1_sym, s)

    def with_a2(self, a2: np.ndarray) -> "QuadraticMatrixPolynomial":
        """This polynomial with A2 replaced, settled on the same core."""
        _check_entries(a2)
        return _settled(self.core, np.array(a2, dtype=complex), self.frame, self.rho)

    def with_tau(self, tau: float) -> "QuadraticMatrixPolynomial":
        """The boundary polynomial at another tau on the same (nu, eta); A2 is
        formed afresh from l(eta), so an A2 given to with_a2 does not carry over."""
        core = self.core
        if core.l_eta is None:
            raise InvalidInput("with_tau needs a polynomial from boundary_polynomial")
        frame = self.frame.with_tau(tau)
        _check_overflow(core.size, self.rho, tau)
        a2 = _a2(core.l_eta, self.rho * tau ** 2).astype(complex)
        return _settled(core, a2, frame, self.rho, core.l_asymmetry)


def boundary_polynomial(m: Material, frame: BoundaryFrame) -> QuadraticMatrixPolynomial:
    """Displacement symbol coefficients at a boundary frame."""
    return _polynomial_stacks([(m, [frame])])[0][0]


def _polynomial_stacks(stacks: list) -> list:
    """boundary_polynomial at each frame of stacks of (material, frames), the
    coefficients of each material built as stacks and the polynomials of all
    materials as one stack (`_polynomial_rows`).  Each polynomial is bit for
    bit what it is built alone, and a check that fails raises as the
    materials built one after another would: a material's polynomials all
    settle before the next material and its frames are gated
    (`_check_instance`) and its coefficient sizes checked."""
    forms, sizes, frames, rhos, failure = [], [], [], [], None
    for m, material_frames in stacks:
        try:        # raised once the materials before it settle
            _check_instance(m, Material, "material must be a Material")
            material_sizes = [_coefficient_size(m.stiffness.norm, _check_instance(
                f, BoundaryFrame, "frame must be a BoundaryFrame")) for f in material_frames]
            for size, frame in zip(material_sizes, material_frames):
                _check_overflow(size, m.density, frame.tau)
        except (InvalidInput, CoefficientOverflow) as exc:
            failure = exc
            break
        vecs = np.array([(f.nu, f.eta) for f in material_frames])
        # x_j C^{ijkm} y_m for x, y in (nu, eta): A0 = C(nu, nu), A1 = C(nu, eta) and
        # l(eta) = C(eta, eta), each bit for bit what its own einsum gives
        forms.append(np.einsum("nxj,ijkm,nym->xynik", vecs, m.stiffness.entries, vecs))
        sizes += material_sizes
        frames += material_frames
        rhos += [m.density] * len(material_frames)
    polys = []
    if forms:
        # np.concatenate copies even one array, which one material does not need
        form = forms[0] if len(forms) == 1 else np.concatenate(forms, axis=2)
        # the forms are real: A0 - A0*, l(eta) - l(eta)* and A1 + A1* are C - C^T and
        # C + C^T, with the +0 imaginary parts that the complex stack gives them
        transposed = form.swapaxes(-1, -2)
        asymmetry = form - transposed
        rho_tau_sq = np.array([rho * f.tau ** 2 for rho, f in zip(rhos, frames)])
        a2 = _a2(form[1, 1], rho_tau_sq[:, None, None])
        built = iter(_records(QuadraticMatrixPolynomial, _polynomial_rows(
            form[0, 0], form[0, 1], a2, asymmetry[0, 0], asymmetry[1, 1],
            form[0, 1] + transposed[0, 1], frames, rhos, form[1, 1], sizes)))
        polys = [list(islice(built, len(material_frames))) for _, material_frames in stacks]
    if failure is not None:
        raise failure
    return polys


def _coefficients(polys: list) -> tuple:
    """Stacks of A0, A1 + A1*, A2 and A0^-1, and the scales, of a list of
    polynomials; for one polynomial its own arrays, which broadcast in the
    same arithmetic over any stack of its entries."""
    if len(polys) == 1:
        (a,) = polys
        return a.a0, a.a1_sym, a.a2, a.core.a0inv, [a.scale]
    stack = np.array([(a.a0, a.a1_sym, a.a2, a.core.a0inv) for a in polys])
    return (*stack.swapaxes(0, 1), [a.scale for a in polys])


def stroh(a: QuadraticMatrixPolynomial) -> np.ndarray:
    """Linearize: A(s)^{-1} = J1 (s - S)^{-1} J2*; K S is Hermitian for K
    the block swap.  Only the lower-left block involves A2: the core's
    template with A2 subtracted there."""
    s = a.core.stroh.copy()
    s[3:, :3] -= a.a2
    return s


@dataclass(frozen=True)
class EigenvalueGroup:
    """One point of the spectrum with multiplicities and, if real, its sign type.

    `kernel`, `geo_mult` and `sign_form` exist for real groups only and are
    None for non-real ones: the outgoing/incoming split needs a kernel only
    where the sign of (A'(s)v|v) decides it (`sign_form`, that form on the
    kernel), and non-real eigenvalues are split by half plane alone.
    """

    value: complex
    alg_mult: int
    geo_mult: int | None
    is_real: bool
    sign_type: str | None        # 'positive' | 'negative' | None
    glancing: bool
    kernel: np.ndarray | None    # 3 x geo_mult orthonormal kernel basis of A(value)
    sign_form: np.ndarray | None = None     # kernel^H A'(value) kernel; read by mode_delay


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
        return _dim_evanescent((g.value, g.alg_mult, g.is_real) for g in self.groups)


def _dim_evanescent(points) -> int:
    """Number of non-real eigenvalues in the upper half plane, with
    multiplicity, of (value, algebraic multiplicity, is real) points."""
    return sum(alg for value, alg, is_real in points if not is_real and value.imag > 0)


def _nullity(sv: list, scale: float) -> int:
    """Number of singular values (descending) at most KERNEL_TOL times the
    largest one, or 1e-12 times the polynomial's scale when that is larger."""
    cutoff = KERNEL_TOL * max(sv[0], scale * 1e-12)
    return sum(map(cutoff.__ge__, sv))


def _kernels(mats: np.ndarray, scales: list) -> list:
    """kernel_basis of each matrix of a stack, from one stacked SVD."""
    _, sv, vh = _lapack.svd(mats)      # right singular vectors as columns, smallest last
    return [v[:, 3 - _nullity(sv_g, scale):] for v, sv_g, scale in zip(_herm(vh), sv.tolist(),
                                                                        scales)]


def kernel_basis(a: QuadraticMatrixPolynomial, s: complex) -> np.ndarray:
    """Orthonormal basis (3 x k) of ker A(s) from an SVD cutoff; InvalidInput
    unless s is a number (not a bool) at which A(s) is finite."""
    _check_instance(a, QuadraticMatrixPolynomial, "a must be a QuadraticMatrixPolynomial")
    if isinstance(s, bool) or not isinstance(s, numbers.Number):
        raise InvalidInput(f"s must be a number, got {s!r}")
    with np.errstate(over="ignore", invalid="ignore"):
        mat = a(s)
    if not np.isfinite(mat).all():
        raise InvalidInput(f"A(s) is not finite at s = {s!r}")
    return _kernels(mat[None], [a.scale])[0]


# --- the rules of a spectrum's classification and factorization ---------------
# _classify and _factorize run them on a list of polynomials, with the linear
# algebra as stacks; classify_spectrum and factorize are the list of one.  A
# rule that fails raises its typed error, so a list raises the first failure
# that its stacked order meets.


def _schur(s6: np.ndarray):
    """Complex Schur form (T, Z), read-only, of a finite Stroh matrix."""
    t, _, _, z, _, info = _lapack.zgees(lambda x: None, s6, lwork=_lapack.ZGEES_LWORK)
    if info != 0:
        raise NumericalDomainError(f"Schur form not found (zgees info {info})")
    t.setflags(write=False)
    z.setflags(write=False)
    return t, z


def _group(vals: np.ndarray, norm: float) -> list:
    """Eigenvalues of S sorted by real, then imaginary part and grouped:
    points within GROUPING_TOL (1 + ||S||) of a group's mean join it, and a
    group whose mean has |Im| below that is real.  (value, algebraic
    multiplicity, is real) per group.  A complex sort orders as
    np.lexsort((imag, real)) does: only equal points can swap."""
    vals = vals.copy()
    vals.sort()
    tol_real = GROUPING_TOL * (1.0 + norm)
    groups = []
    for idx, mean in cluster_sorted(vals, max(tol_real, 1e3 * _EPS * norm)):
        mean = complex(mean)
        is_real = abs(mean.imag) <= tol_real
        groups.append((complex(mean.real) if is_real else mean, len(idx), is_real))
    return groups


def _sign_type(lowest: float, highest: float, slope_norm: float) -> str | None:
    """Sign type of the form (A'(s)v|v) on a kernel from its extreme
    eigenvalues: definite beyond GLANCING_TOL ||A'(s)||, or None (glancing)."""
    thresh = GLANCING_TOL * max(slope_norm, 1e-300)
    if lowest > thresh:
        return "positive"
    if highest < -thresh:
        return "negative"
    return None


def _group_fields(value: complex, alg: int, kernel=None, sign=None, form=None) -> dict:
    """The fields of an EigenvalueGroup; one with a kernel is real, and
    glances when its eigenvalue is defective or its sign form is indefinite
    or too small."""
    real = kernel is not None
    geo = kernel.shape[1] if real else None
    return {"value": value, "alg_mult": alg, "geo_mult": geo, "is_real": real, "sign_type": sign,
            "glancing": real and (geo < alg or sign is None), "kernel": kernel, "sign_form": form}


def _sign_forms(a0, a1_sym, s, kernels: list) -> tuple:
    """_sign_type and sign form kernel^H A'(s) kernel of each real group, from
    stacks of A0, A1 + A1* and real s (one entry per group), with one stacked
    eigvalsh per kernel dimension past 1; None where the kernel is empty.  A
    1 x 1 form's Hermitian part is its real part, which is its eigenvalue
    (what eigvalsh gives, bit for bit)."""
    da = _slope(a0, a1_sym, s)
    norms = _fro(da).tolist()
    dims = [kern.shape[1] for kern in kernels]
    signs, forms = [None] * len(dims), [None] * len(dims)
    for dim in set(dims) - {0}:
        sel = [r for r, d in enumerate(dims) if d == dim]
        kern = np.array([kernels[r] for r in sel])
        stacked = _herm(kern) @ (da if len(sel) == len(dims) else da[sel]) @ kern
        if dim == 1:
            lows = highs = stacked[:, 0, 0].real.tolist()
        else:
            eigs = _lapack.eigvalsh(0.5 * (stacked + _herm(stacked)))
            lows, highs = eigs[:, 0].tolist(), eigs[:, -1].tolist()
        for r, lo, hi, form in zip(sel, lows, highs, stacked):
            signs[r], forms[r] = _sign_type(lo, hi, norms[r]), form
    return signs, forms


def classify_spectrum(a: QuadraticMatrixPolynomial) -> SpectrumClassification:
    """Eigenvalues of the linearization, grouped, with sign types for real ones.

    The eigenvalues are the diagonal of one complex Schur form, which is
    kept for factorize.  A real eigenvalue is glancing when the derivative
    form on its kernel is indefinite or too small, or when the eigenvalue is
    defective.
    """
    _check_instance(a, QuadraticMatrixPolynomial, "a must be a QuadraticMatrixPolynomial")
    return _classify([a])[0]


def _spectra(polys: list) -> list:
    """(points, ||S||, Schur form (T, Z)) of each polynomial's Stroh matrix
    S, the points `_group`ed from the diagonal of T: the norms of all Stroh
    matrices as one stack, then the Schur form of each on its own.  The
    first stage of `_classify`, and all that a question about the
    eigenvalues alone reads (`boundary._fully_evanescent`)."""
    out = []
    # one Stroh matrix is a stack of one as it stands: np.array would copy it
    stacked = stroh(polys[0])[None] if len(polys) == 1 else np.array([stroh(a) for a in polys])
    for s6, norm in zip(stacked, _fro(stacked).tolist()):
        # a finite norm has finite entries; an infinite or NaN one sends s6 to the full check
        if not (math.isfinite(norm) or np.isfinite(s6).all()):
            raise NumericalDomainError("Stroh matrix is not finite")
        schur = _schur(s6)
        out.append((_group(schur[0].diagonal(), norm), norm, schur))
    return out


def _classify(polys: list) -> list:
    """classify_spectrum of each polynomial: its `_spectra`, then the kernels
    at every real eigenvalue of all of them from one stacked SVD and their
    sign forms as stacks."""
    out = _spectra(polys)
    real = [(k, value) for k, (groups, _, _) in enumerate(out)
            for value, _, is_real in groups if is_real]     # (polynomial, s) of each
    found = iter(())
    if real:
        at, values = zip(*real)
        a0, a1_sym, a2, _, _ = _coefficients(polys)
        if len(polys) > 1:      # one row per group; one polynomial's broadcast over its groups
            a0, a1_sym, a2 = a0[list(at)], a1_sym[list(at)], a2[list(at)]
        s = np.array(values)[:, None, None]
        kernels = _kernels(_at(a0, a1_sym, a2, s), [polys[k].scale for k in at])
        found = zip(kernels, *_sign_forms(a0, a1_sym, s.real, kernels))
    return [_record(SpectrumClassification, {"groups": _records(EigenvalueGroup, [
        _group_fields(value, alg, *next(found)) if is_real else _group_fields(value, alg)
        for value, alg, is_real in groups]), "stroh_norm": norm, "schur": schur})
        for groups, norm, schur in out]


def _sigma_values(classification: SpectrumClassification, direction: str,
                  tau: float) -> list[complex]:
    """Target spectrum half: upper half plane plus matching-type real points.

    Outgoing real eigenvalues satisfy -tau (A'(s)v|v) > 0 on the kernel, so
    they are of positive type when tau < 0 and negative type when tau > 0.
    """
    if direction not in ("outgoing", "incoming"):
        raise InvalidInput(f"direction must be outgoing or incoming, got {direction!r}")
    want = "positive" if (tau < 0) == (direction == "outgoing") else "negative"
    return [g.value for g in classification.groups for _ in range(g.alg_mult)
            if (g.sign_type == want if g.is_real else g.value.imag > 0)]


def _target(classification: SpectrumClassification, direction: str, tau: float):
    """(sigma, its distinct points sorted, the tolerance for a Schur
    eigenvalue to match one) of a direction; raises why there is none."""
    if classification.glancing:
        raise GlancingSpectrum("spectrum has a glancing real eigenvalue")
    sigma = _sigma_values(classification, direction, tau)
    if len(sigma) != 3:
        raise SigmaCardinality(f"selected spectrum has cardinality {len(sigma)}, expected 3")
    targets = sorted(set(sigma), key=lambda z: (z.real, z.imag))
    return sigma, targets, max(GROUPING_TOL * (1.0 + classification.stroh_norm), 1e-12)


def _selected(diag: np.ndarray, targets: np.ndarray, match_tol: float) -> np.ndarray:
    """Which Schur eigenvalues lie within 10 match_tol of a target."""
    return np.abs(diag[:, None] - targets).min(axis=1) <= 10 * match_tol


def _reorder(t: np.ndarray, zvec: np.ndarray, select: np.ndarray):
    """The Schur form (T, Z) reordered to put the selected eigenvalues first."""
    t, zvec, _, sdim, _, _, info = _lapack.ztrsen(select, t, zvec, job="N")
    if info != 0:
        raise NumericalDomainError(f"Schur reordering failed (ztrsen info {info})")
    if sdim != 3:
        raise SigmaCardinality(
            f"ordered Schur selected a {sdim}-dimensional subspace, expected 3")
    return t, zvec


def _check_condition(cond: float) -> None:
    """Raise IllConditionedJ for cond(X1) past MAX_J_CONDITION."""
    if cond > MAX_J_CONDITION:
        raise IllConditionedJ("displacement block of the invariant subspace is "
                              "too ill-conditioned")


def _roots(x1, t1, a0, a1_sym, a0inv) -> tuple:
    """Q = X1 T1 X1^-1, A0 Q and Q# = -(A0 Q + A1 + A1*) A0^-1, for one root or
    stacks; A0 Q is formed once, for Q#, the solvency residual and z."""
    q = x1 @ t1 @ _lapack.inv(x1)
    a0_q = a0 @ q
    return q, a0_q, -(a0_q + a1_sym) @ a0inv


def _solvent(a0_q, a1_sym, a2, q) -> np.ndarray:
    """(A0 Q) Q + (A1 + A1*) Q + A2, zero for a solvent Q (one or stacks)."""
    return a0_q @ q + a1_sym @ q + a2


def _check_roots(residual: float, gap: float, scale: float) -> None:
    """Raise the error of a factorization's first failed check: a solvency
    residual above 1e-10, or right and left root spectra within 1e-6 of
    their size (scale) of each other."""
    if not residual <= 1e-10:
        raise SolvencyResidual(f"solvency residual {residual:g} exceeds 1e-10")
    if not gap > 1e-6 * scale:
        raise GlancingSpectrum(f"right/left root spectra nearly intersect (gap {gap:g})")


@dataclass(frozen=True)
class SpectralFactorization:
    """Right/left roots of A(s) = (s - Q#) A0 (s - Q) with spec(Q) = sigma."""

    q: np.ndarray
    q_sharp: np.ndarray
    sigma: tuple
    direction: str
    tau: float
    poly: QuadraticMatrixPolynomial
    classification: SpectrumClassification = field(repr=False)
    q_spectrum: np.ndarray = field(repr=False)     # eig(Q), also read by the mode projectors
    solvency_residual: float                       # ||A0 Q^2 + (A1 + A1*) Q + A2|| / scale
    a0_q: np.ndarray = field(repr=False)           # A0 Q, read by the residual and the impedance


def _validate(facts: list, coefficients: tuple, q: np.ndarray, a0_q: np.ndarray,
              q_sharp: np.ndarray) -> None:
    """_check_roots on each factorization, from the stacks of its polynomial's
    coefficients and of its roots and A0 Q; keeps each one's q_spectrum and
    solvency residual."""
    n = len(facts)
    _, a1_sym, a2, _, scales = coefficients
    residuals = [r / scale for r, scale in zip(_fro(_solvent(a0_q, a1_sym, a2, q)).tolist(),
                                                  scales)]
    for residual in (r for r in residuals if not math.isfinite(r)):  # before eigvals sees it
        _check_roots(residual, math.inf, 1.0)
    spectra = _lapack.eigvals(np.concatenate((q, q_sharp)))
    eq, es = spectra[:n], spectra[n:]
    # per entry, the moduli of the 3 + 3 eigenvalues of Q and Q# and of their 9
    # differences, from one abs pass: the size and the gap of `_check_roots`
    moduli = np.abs(np.concatenate((eq, es, (eq[:, :, None] - es[:, None, :]).reshape(n, 9)),
                                   axis=1)).tolist()
    for f, spectrum, residual, row in zip(facts, eq, residuals, moduli):
        vars(f).update(q_spectrum=spectrum, solvency_residual=residual)
        _check_roots(residual, min(row[6:]), max(*row[:6], 1e-300))


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
    _check_instance(a, QuadraticMatrixPolynomial, "a must be a QuadraticMatrixPolynomial")
    if tau is None:
        if a.frame is None:
            raise InvalidInput("tau is required when the polynomial carries no frame")
        tau = a.frame.tau
    else:
        _check_tau(tau)
    if classification is None:
        classification = classify_spectrum(a)
    return _factorize([a], [classification], direction, [tau])[0]


def _factorize(polys: list, classifications: list, direction: str, taus: list) -> list:
    """factorize each polynomial from its classification: the target and
    ordered Schur form one by one, then cond(X1) of every entry from one
    stacked SVD, then the roots and their checks as stacks."""
    sigmas, x1, t1 = [], [], []
    for cls, tau in zip(classifications, taus):
        sigma, targets, match_tol = _target(cls, direction, tau)
        t, zvec = cls.schur
        t, zvec = _reorder(t, zvec, _selected(t.diagonal(), np.array(targets), match_tol))
        sigmas.append(tuple(sigma))
        x1.append(zvec[:3, :3])
        t1.append(t[:3, :3])
    x1, t1 = np.array(x1), np.array(t1)
    # cond(X1) = s_max / s_min, what np.linalg.cond gives for a finite X1
    for s_max, _, s_min in _lapack.svdvals(x1).tolist():
        _check_condition(s_max / s_min if s_min > 0 else math.inf)
    coefficients = _coefficients(polys)
    a0, a1_sym, _, a0inv, _ = coefficients
    q, a0_q, q_sharp = _roots(x1, t1, a0, a1_sym, a0inv)
    facts = [_record(SpectralFactorization, q=q[k], q_sharp=q_sharp[k], sigma=sigma,
                     direction=direction, tau=float(tau), poly=a, classification=cls,
                     a0_q=a0_q[k])
             for k, (a, cls, tau, sigma) in enumerate(zip(polys, classifications, taus, sigmas))]
    _validate(facts, coefficients, q, a0_q, q_sharp)
    return facts


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
    """Trapezoidal (1/2 pi i) contour integrals of A^{-1} and s A^{-1}, with
    A(z) inverted at all nodes as one stack."""
    e = radius * np.exp(2j * np.pi * np.arange(n_nodes) / n_nodes)
    z = center + e
    inv = np.linalg.inv(a(z[:, None, None]))
    w = e / n_nodes                       # includes the 1/(2 pi i) factor
    return np.einsum("n,nij->ij", w, inv), np.einsum("n,nij->ij", w * z, inv)


def contour_root_check(a: QuadraticMatrixPolynomial, q: np.ndarray,
                       center: complex, radius: float):
    """Residual of Q . (contour integral of A^{-1}) - (contour integral of s A^{-1}).

    The circle must enclose part of spec(Q) only, with clearance > radius/10
    from every eigenvalue of A.  Node counts double until two successive
    quadratures agree to CONTOUR_TOL.  Returns (relative_residual, info).
    """
    spec_a = np.linalg.eigvals(stroh(a))
    dist_to_circle = np.abs(np.abs(spec_a - center) - radius)
    if np.min(dist_to_circle) <= radius / 10.0:
        raise ContourTooClose("an eigenvalue lies within radius/10 of the contour")
    spec_q = np.linalg.eigvals(q)
    spec_sharp = [z for z in spec_a
                  if np.min(np.abs(z - spec_q)) > 1e-6 * max(1.0, np.max(np.abs(spec_a)))]
    if any(abs(z - center) < radius for z in spec_sharp):
        raise ContourTooClose("circle encloses left-root spectrum")

    prev = None
    nodes = CONTOUR_NODES
    while True:
        c0, c1 = _circle_moments(a, center, radius, nodes)
        if (prev is not None
                and np.linalg.norm(c0 - prev[0]) + np.linalg.norm(c1 - prev[1]) < CONTOUR_TOL):
            break
        if nodes >= CONTOUR_MAX_NODES:
            raise QuadratureNotConverged("contour quadrature did not converge")
        prev = (c0, c1)
        nodes *= 2

    scale = np.linalg.norm(c1)
    enclosed_rank = int(np.sum(np.abs(spec_q - center) < radius))
    if enclosed_rank == 0 or scale < 1e-12:
        return 0.0, {"nodes": nodes, "enclosed_rank": enclosed_rank, "empty": True}
    residual = float(np.linalg.norm(q @ c0 - c1) / scale)
    return residual, {"nodes": nodes, "enclosed_rank": enclosed_rank, "empty": False}
