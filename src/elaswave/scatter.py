"""Reflection and transmission of boundary traces with energy accounting.

All laws act on Dirichlet traces.  At a free surface zero traction gives
f = -z_out^{-1} z_in g; at a welded interface continuity of displacement
and traction gives f- = -(z+_out + z-_out)^{-1}(z+_in - z+_out) g and
f+ = f- - g.  Each law is linear in g and depends only on the frame and
the materials, so it is built once per frame as a `ScatterOperator` and
applied to every trace that meets it.  Energy bookkeeping uses the modal
flux identity, with incident modes flux-normalized so amplitude tables
compare directly.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NoIncomingMode, NonEllipticOperator
from .factorization import (
    BoundaryFrame,
    QuadraticMatrixPolynomial,
    SpectralFactorization,
    boundary_polynomial,
    classify_spectrum,
    factorize,
    kernel_basis,
)
from .impedance import ModeProjectors, impedance_from_factorization, mode_projectors
from .materials import Material


@dataclass(frozen=True)
class TraceField:
    """Dirichlet trace of an incoming plane-wave at the boundary point."""

    g: np.ndarray
    frame: BoundaryFrame
    s_in: float
    side: str = "+"
    flux: float = 1.0     # incident energy flux carried by g


@dataclass(frozen=True)
class SideWaves:
    """Outgoing content on one side of a boundary or interface."""

    trace: np.ndarray                 # full outgoing trace f
    amplitudes: dict                  # real eigenvalue s -> psi_s f
    evanescent: np.ndarray            # pi_c f
    fluxes: dict                      # real eigenvalue s -> -tau (A'(s)f_s|f_s)/2
    factorization: SpectralFactorization = field(repr=False, default=None)

    @property
    def total_flux(self) -> float:
        return float(sum(self.fluxes.values()))


@dataclass(frozen=True)
class ScatterResult:
    incoming: TraceField
    sides: dict                       # side tag -> SideWaves
    incident_flux: float
    balance_residual: float


@dataclass(frozen=True)
class ModalSide:
    """A side's polynomial, one factorization of it and that factorization's
    mode projectors, computed once and shared by every trace scattered there."""

    poly: QuadraticMatrixPolynomial
    factorization: SpectralFactorization
    projectors: ModeProjectors


def _modal_side(a: QuadraticMatrixPolynomial,
                f: SpectralFactorization) -> ModalSide:
    return ModalSide(a, f, mode_projectors(f))


def _side_waves(side: ModalSide, trace: np.ndarray, tau: float) -> SideWaves:
    a = side.poly
    amps, fluxes = {}, {}
    for s, psi in side.projectors.psi.items():
        fs = psi @ trace
        amps[s] = fs
        fluxes[s] = float(-tau * 0.5 * np.real(np.vdot(fs, a.derivative(s) @ fs)))
    return SideWaves(trace, amps, side.projectors.pi_c @ trace, fluxes,
                     side.factorization)


def incoming_mode(m: Material, frame: BoundaryFrame,
                  mode: int | float = 0) -> TraceField:
    """Flux-normalized pure incoming mode.

    `mode` selects the real incoming eigenvalue either by index (sorted
    ascending) or by value.  The kernel vector is scaled to carry unit
    incident energy flux, +tau (A'(s)g|g)/2 = 1.
    """
    a = boundary_polynomial(m, frame)
    f_in = factorize(a, "incoming")
    pr = mode_projectors(f_in)
    reals = sorted(pr.psi.keys())
    if not reals:
        raise NoIncomingMode("frame is elliptic: no real incoming mode")
    if isinstance(mode, int) and not isinstance(mode, bool) and mode < len(reals):
        s = reals[mode]
    else:
        s = min(reals, key=lambda r: abs(r - float(mode)))
        if abs(s - float(mode)) > 1e-6 * (1.0 + abs(s)):
            raise NoIncomingMode(f"no incoming mode near s = {mode}")
    kern = kernel_basis(a, s)
    v = kern[:, 0]
    flux_in = frame.tau * 0.5 * np.real(np.vdot(v, a.derivative(s) @ v))
    if flux_in <= 0:
        raise NoIncomingMode(f"mode s = {s} does not carry energy inward")
    g = v / np.sqrt(flux_in)
    return TraceField(g, frame, float(s))


def _incident_flux(side: ModalSide, g: np.ndarray, tau: float) -> float:
    """Energy flux toward the boundary carried by an incoming trace."""
    a = side.poly
    total = 0.0
    for s, psi in side.projectors.psi.items():
        gs = psi @ g
        total += tau * 0.5 * np.real(np.vdot(gs, a.derivative(s) @ gs))
    return float(total)


def _check_invertible(mat: np.ndarray, margin: float, what: str) -> np.ndarray:
    sv = np.linalg.svd(mat, compute_uv=False)
    if sv[-1] <= margin * sv[0]:
        raise NonEllipticOperator(f"{what} is numerically singular "
                                  f"(sigma_min/sigma_max = {sv[-1]/sv[0]:.2e})")
    return np.linalg.inv(mat)


@dataclass(frozen=True)
class ScatterOperator:
    """A scattering law at one frame, built once and applied to any trace.

    Every law has the form f = -minv (zin g).  At a free surface
    minv = z_out^{-1}, zin = z_in and f is the reflected trace; at a welded
    interface minv = (z+_out + z-_out)^{-1}, zin = z+_in - z+_out, f is the
    transmitted trace f- and the reflected one is f+ = f- - g.
    """

    frame: BoundaryFrame
    minv: np.ndarray
    zin: np.ndarray
    incoming: ModalSide               # incoming factorization of the + side
    sides: dict                       # side tag -> outgoing ModalSide

    def apply(self, incoming: TraceField) -> ScatterResult:
        tau = self.frame.tau
        g = incoming.g
        f = -self.minv @ (self.zin @ g)
        traces = {"+": f - g, "-": f} if "-" in self.sides else {"+": f}
        sides = {tag: _side_waves(side, traces[tag], tau)
                 for tag, side in self.sides.items()}
        inc = _incident_flux(self.incoming, g, tau)
        out = sum(side.total_flux for side in sides.values())
        residual = abs(inc - out) / max(abs(inc), 1e-300)
        return ScatterResult(incoming, sides, inc, residual)


def free_surface_operator(m: Material, frame: BoundaryFrame,
                          margin: float = 1e-8) -> ScatterOperator:
    """Zero-traction law f = -z_out^{-1} z_in g at one frame."""
    a = boundary_polynomial(m, frame)
    cls = classify_spectrum(a)
    f_out = factorize(a, "outgoing", classification=cls)
    f_in = factorize(a, "incoming", classification=cls)
    z_out = impedance_from_factorization(a, f_out).z
    z_in = impedance_from_factorization(a, f_in).z
    out = _modal_side(a, f_out)
    if out.projectors.dim_ec == 3:
        raise NoIncomingMode("frame is elliptic: nothing propagates")
    minv = _check_invertible(z_out, margin, "z_out")
    return ScatterOperator(frame, minv, z_in, _modal_side(a, f_in), {"+": out})


def interface_operator(m_plus: Material, m_minus: Material,
                       frame: BoundaryFrame,
                       margin: float = 1e-8) -> ScatterOperator:
    """Welded-interface law for traces incoming from the + side.

    The frame's conormal points into the + material; the - side uses the
    flipped frame.  Continuity [u] = 0 and traction balance give the two
    outgoing traces.
    """
    ap = boundary_polynomial(m_plus, frame)
    am = boundary_polynomial(m_minus, frame.flipped())
    cls_p = classify_spectrum(ap)
    fp_out = factorize(ap, "outgoing", classification=cls_p)
    fp_in = factorize(ap, "incoming", classification=cls_p)
    fm_out = factorize(am, "outgoing")
    zp_out = impedance_from_factorization(ap, fp_out).z
    zp_in = impedance_from_factorization(ap, fp_in).z
    zm_out = impedance_from_factorization(am, fm_out).z
    plus, minus = _modal_side(ap, fp_out), _modal_side(am, fm_out)
    if plus.projectors.dim_ec == 3 and minus.projectors.dim_ec == 3:
        raise NoIncomingMode("frame is elliptic on both sides")
    minv = _check_invertible(zp_out + zm_out, margin, "z+_out + z-_out")
    return ScatterOperator(frame, minv, zp_in - zp_out, _modal_side(ap, fp_in),
                           {"+": plus, "-": minus})


def reflect_free_surface(m: Material, frame: BoundaryFrame,
                         incoming: TraceField,
                         margin: float = 1e-8) -> ScatterResult:
    """Zero-traction reflection f = -z_out^{-1} z_in g."""
    return free_surface_operator(m, frame, margin).apply(incoming)


def transmit_interface(m_plus: Material, m_minus: Material,
                       frame: BoundaryFrame, incoming: TraceField,
                       margin: float = 1e-8) -> ScatterResult:
    """Welded-interface scattering of a trace incoming from the + side."""
    return interface_operator(m_plus, m_minus, frame, margin).apply(incoming)


def energy_balance(r: ScatterResult, evanescent_tol: float = 1e-9) -> dict:
    """Flux ledger for a scattering result.

    Verifies that evanescent components carry no flux and reports the
    relative balance residual.
    """
    report = {
        "incident_flux": r.incident_flux,
        "balance_residual": r.balance_residual,
        "sides": {},
    }
    for tag, side in r.sides.items():
        a = side.factorization.poly
        tau = side.factorization.tau
        ev = side.evanescent
        z = impedance_from_factorization(a, side.factorization).z
        ev_flux = -tau * np.imag(np.vdot(z @ ev, ev))
        scale = max(np.linalg.norm(z) * max(float(np.vdot(ev, ev).real), 1e-300), 1e-300)
        report["sides"][tag] = {
            "mode_fluxes": dict(side.fluxes),
            "total_flux": side.total_flux,
            "evanescent_flux": float(ev_flux),
            "evanescent_flux_ok": bool(abs(ev_flux) <= evanescent_tol * scale),
        }
    return report
