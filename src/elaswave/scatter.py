"""Reflection and transmission of boundary traces with energy accounting.

All laws act on Dirichlet traces.  At a free surface zero traction gives
f = -z_out^{-1} z_in g; at a welded interface continuity of displacement
and traction gives f- = -(z+_out + z-_out)^{-1}(z+_in - z+_out) g and
f+ = f- - g.  Each law is linear in g and depends only on the frame and
the materials, so it is built once per frame as a `ScatterOperator` from
the `BoundarySide` of each side and applied to every trace that meets it.
Energy bookkeeping uses the modal flux identity, with incident modes
flux-normalized so amplitude tables compare directly.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .boundary import BoundarySide
from .errors import InvalidInput, NoIncomingMode, NonEllipticOperator
from .factorization import BoundaryFrame, kernel_basis
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
    side: BoundarySide = field(repr=False, default=None)

    @property
    def total_flux(self) -> float:
        return float(sum(self.fluxes.values()))


@dataclass(frozen=True)
class ScatterResult:
    incoming: TraceField
    sides: dict                       # side tag -> SideWaves
    incident_flux: float
    balance_residual: float


def _side_waves(side: BoundarySide, trace: np.ndarray, tau: float) -> SideWaves:
    a = side.poly
    projectors = side.projectors()
    amps, fluxes = {}, {}
    for s, psi in projectors.psi.items():
        fs = psi @ trace
        amps[s] = fs
        fluxes[s] = float(-tau * 0.5 * np.real(np.vdot(fs, a.derivative(s) @ fs)))
    return SideWaves(trace, amps, projectors.pi_c @ trace, fluxes, side)


def incoming_mode(m: Material, frame: BoundaryFrame,
                  mode: int | float = 0) -> TraceField:
    """Flux-normalized pure incoming mode.

    `mode` selects the real incoming eigenvalue either by index (sorted
    ascending) or by value.  The kernel vector is scaled to carry unit
    incident energy flux, +tau (A'(s)g|g)/2 = 1.
    """
    return side_incoming_mode(BoundarySide(m, frame), mode)


def side_incoming_mode(side: BoundarySide, mode: int | float = 0) -> TraceField:
    """`incoming_mode` on a side whose incoming projectors may be shared."""
    a, frame = side.poly, side.frame
    reals = sorted(side.projectors("incoming").psi.keys())
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


def _incident_flux(side: BoundarySide, g: np.ndarray, tau: float) -> float:
    """Energy flux toward the boundary carried by an incoming trace."""
    a = side.poly
    total = 0.0
    for s, psi in side.projectors("incoming").psi.items():
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
    transmitted trace f- and the reflected one is f+ = f- - g.  Traces come
    in on the + side, whose incoming projectors measure the incident flux.
    """

    minv: np.ndarray
    zin: np.ndarray
    sides: dict                       # side tag -> BoundarySide

    @property
    def frame(self) -> BoundaryFrame:
        return self.sides["+"].frame

    def apply(self, incoming: TraceField) -> ScatterResult:
        tau = self.frame.tau
        g = incoming.g
        f = -self.minv @ (self.zin @ g)
        traces = {"+": f - g, "-": f} if "-" in self.sides else {"+": f}
        sides = {tag: _side_waves(side, traces[tag], tau)
                 for tag, side in self.sides.items()}
        inc = _incident_flux(self.sides["+"], g, tau)
        out = sum(side.total_flux for side in sides.values())
        residual = abs(inc - out) / max(abs(inc), 1e-300)
        return ScatterResult(incoming, sides, inc, residual)


def free_surface_operator(side: BoundarySide,
                          margin: float = 1e-8) -> ScatterOperator:
    """Zero-traction law f = -z_out^{-1} z_in g at the side's frame."""
    z_out, z_in = side.z("outgoing"), side.z("incoming")
    if side.projectors().dim_ec == 3:
        raise NoIncomingMode("frame is elliptic: nothing propagates")
    minv = _check_invertible(z_out, margin, "z_out")
    return ScatterOperator(minv, z_in, {"+": side})


def interface_operator(plus: BoundarySide, minus: BoundarySide,
                       margin: float = 1e-8) -> ScatterOperator:
    """Welded-interface law for traces incoming from the + side.

    The + side's frame has its conormal pointing into the + material; the
    - side is seen from the flipped frame.  Continuity [u] = 0 and traction
    balance give the two outgoing traces.
    """
    fp, fm = plus.frame, minus.frame
    if not (np.array_equal(fm.nu, -fp.nu) and np.array_equal(fm.eta, fp.eta) and fm.tau == fp.tau):
        raise InvalidInput("the - side must be seen from the + side's flipped frame")
    zp_out, zp_in, zm_out = plus.z("outgoing"), plus.z("incoming"), minus.z("outgoing")
    if plus.projectors().dim_ec == 3 and minus.projectors().dim_ec == 3:
        raise NoIncomingMode("frame is elliptic on both sides")
    minv = _check_invertible(zp_out + zm_out, margin, "z+_out + z-_out")
    return ScatterOperator(minv, zp_in - zp_out, {"+": plus, "-": minus})


def reflect_free_surface(m: Material, frame: BoundaryFrame,
                         incoming: TraceField,
                         margin: float = 1e-8) -> ScatterResult:
    """Zero-traction reflection f = -z_out^{-1} z_in g."""
    return free_surface_operator(BoundarySide(m, frame), margin).apply(incoming)


def transmit_interface(m_plus: Material, m_minus: Material,
                       frame: BoundaryFrame, incoming: TraceField,
                       margin: float = 1e-8) -> ScatterResult:
    """Welded-interface scattering of a trace incoming from the + side."""
    return interface_operator(BoundarySide(m_plus, frame),
                              BoundarySide(m_minus, frame.flipped()),
                              margin).apply(incoming)


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
        tau = side.side.frame.tau
        ev = side.evanescent
        z = side.side.z()
        ev_flux = -tau * np.imag(np.vdot(z @ ev, ev))
        scale = max(np.linalg.norm(z) * max(float(np.vdot(ev, ev).real), 1e-300), 1e-300)
        report["sides"][tag] = {
            "mode_fluxes": dict(side.fluxes),
            "total_flux": side.total_flux,
            "evanescent_flux": float(ev_flux),
            "evanescent_flux_ok": bool(abs(ev_flux) <= evanescent_tol * scale),
        }
    return report
