"""Reflection and transmission of boundary traces with energy accounting.

All laws act on Dirichlet traces.  At a free surface zero traction gives
f = -z_out^{-1} z_in g; at a welded interface continuity of displacement
and traction gives f- = -(z+_out + z-_out)^{-1}(z+_in - z+_out) g and
f+ = f- - g.  A law reads z_in = z_out^H (`BoundarySide.z`); only an
incident trace and its flux read an incoming factorization.  Each law is
linear in g and depends only on the frame and the materials, so it is
built once per frame as a `ScatterOperator` from the `BoundarySide` of
each side and applied to every trace that meets it.  At build time the
law is compiled, as with Kennett's reflection and transmission matrices,
into one fixed 3x3 map per outgoing mode and per side.  One kernel,
`_scatter_pairs`, scatters traces on mode rows: `apply` runs it on one
trace and the rows of its law, the event tree on the rows of many laws
stacked, one trace each.  Laws are built by `_scatter_operators`,
many at once: the mode projectors of their sides and the SVD and inverse
of the matrices they invert are shared stacks, then each law is compiled
alone from its own sides, bit for bit what it gets built alone.
`free_surface_operator` and `interface_operator` are its one-law case.
Energy bookkeeping uses the modal flux identity, with incident modes
flux-normalized so amplitude tables compare directly.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _lapack
from .boundary import BoundarySide, _sides, _stacked_projectors
from .errors import InvalidInput, NoIncomingMode, NonEllipticOperator
from .factorization import _EYE, BoundaryFrame, _slope, kernel_basis
from .impedance import flux_form
from .materials import Material, _check_instance, _check_vector, _is_int

INVERTIBLE_MARGIN = 1e-8    # a law's matrix with sigma_min/sigma_max at or below this is singular
EVANESCENT_FLUX_TOL = 1e-9  # evanescent flux above this, relative to ||z|| |pi_c f|^2, is flagged


@dataclass(frozen=True)
class TraceField:
    """Dirichlet trace of an incoming plane-wave at the boundary point."""

    g: np.ndarray
    s_in: float
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
    sides: dict                       # side tag -> SideWaves
    incident_flux: float
    balance_residual: float


def incoming_mode(m: Material, frame: BoundaryFrame, mode: int = 0) -> TraceField:
    """Flux-normalized pure incoming mode number `mode` (see
    `side_incoming_mode`) of a material at a frame."""
    return side_incoming_mode(BoundarySide(m, frame), mode)


def side_incoming_mode(side: BoundarySide, mode: int = 0) -> TraceField:
    """Flux-normalized pure incoming mode of a side: `mode` is an index into
    its real incoming eigenvalues s, ascending (InvalidInput if it is not a
    non-negative integer, NoIncomingMode past the last s), and a vector of
    ker A(s) is scaled to unit flux +tau (A'(s)g|g)/2 = 1."""
    _check_instance(side, BoundarySide, "side must be a BoundarySide")
    if not (_is_int(mode) and mode >= 0):
        raise InvalidInput(f"mode must be a non-negative index, got {mode!r}")
    a, frame = side.poly, side.frame
    reals = sorted(side.projectors("incoming").psi.keys())
    if not reals:
        raise NoIncomingMode("frame is elliptic: no real incoming mode")
    if mode >= len(reals):
        raise NoIncomingMode(f"no incoming mode {mode}: the frame has {len(reals)}")
    s = reals[mode]
    kern = kernel_basis(a, s)
    v = kern[:, 0]
    flux_in = frame.tau * 0.5 * np.real(np.vdot(v, a.derivative(s) @ v))
    if flux_in <= 0:
        raise NoIncomingMode(f"mode s = {s} does not carry energy inward")
    g = v / np.sqrt(flux_in)
    return TraceField(g, float(s))


def _incident_flux(side: BoundarySide, g: np.ndarray, tau: float) -> float:
    """Energy flux toward the boundary carried by an incoming trace."""
    a = side.poly
    total = 0.0
    for s, psi in side.projectors("incoming").psi.items():
        gs = psi @ g
        total += tau * 0.5 * np.real(np.vdot(gs, a.derivative(s) @ gs))
    return float(total)


@dataclass(frozen=True)
class ScatterOperator:
    """A scattering law at one frame, built once and applied to any trace.

    Every law has the form f = T g.  At a free surface T = -z_out^{-1} z_in
    and f is the reflected trace; at a welded interface
    T = -(z+_out + z-_out)^{-1}(z+_in - z+_out), f is the transmitted trace
    f- and the reflected one is f+ = f- - g.  Traces come in on the + side,
    whose incoming projectors measure the incident flux.

    `_scatter_operators` compiles the law on all its sides.  Its M outgoing
    modes come side by side in the law's order, s ascending on each: the
    side tag and real outgoing s of each (`tags`, `modes`), its amplitude
    map psi_s T and its flux form -tau/2 A'(s) (`mode_maps`, `forms`, each
    (M, 3, 3)), where f = T g on that side.  `side_maps` holds the
    evanescent map pi_c T and the trace map T of each side, (sides, 2, 3, 3).
    """

    sides: dict                       # side tag -> BoundarySide
    tags: tuple
    modes: tuple
    mode_maps: np.ndarray = field(repr=False)
    forms: np.ndarray = field(repr=False)
    side_maps: np.ndarray = field(repr=False)

    @property
    def frame(self) -> BoundaryFrame:
        return self.sides["+"].frame

    def apply(self, incoming: TraceField) -> ScatterResult:
        """Scatter one trace on all sides of the law: every mode row by
        `_scatter_pairs`, and the evanescent parts and traces in one
        contraction.  InvalidInput unless incoming is a TraceField whose g
        is a vector of 3 finite numbers."""
        _check_instance(incoming, TraceField, "incoming must be a TraceField")
        g = _check_vector(incoming.g, "g")
        amps, fluxes = _scatter_pairs(self.mode_maps, self.forms, g[None])
        waves = np.einsum("kmij,j->kmi", self.side_maps, g)
        sides = {tag: SideWaves(trace, {}, ev, {}, side)
                 for (tag, side), (ev, trace) in zip(self.sides.items(), waves)}
        for tag, s, amp, flux in zip(self.tags, self.modes, amps, fluxes.tolist()):
            sides[tag].amplitudes[s], sides[tag].fluxes[s] = amp, flux
        inc = _incident_flux(self.sides["+"], g, self.frame.tau)
        out = sum(side.total_flux for side in sides.values())
        residual = abs(inc - out) / max(abs(inc), 1e-300)
        return ScatterResult(sides, inc, residual)


def _scatter_pairs(maps: np.ndarray, forms: np.ndarray, g: np.ndarray) -> tuple:
    """Amplitudes (P, 3) and fluxes (P,) of the mode rows maps[p], forms[p]
    (a law's `mode_maps` and `forms`, or rows of many laws) on traces g[p];
    a g of one row is every row's trace."""
    # einsum without `optimize` sums each entry in a fixed order and never
    # hands the product to BLAS, so a row does not depend on its companions.
    amps = np.einsum("pij,pj->pi", maps, g)
    return amps, np.einsum("pi,pi->p", amps.conj(), np.einsum("pij,pj->pi", forms, amps)).real


def free_surface_operator(side: BoundarySide) -> ScatterOperator:
    """Zero-traction law f = -z_out^{-1} z_in g at the side's frame."""
    _check_instance(side, BoundarySide, "side must be a BoundarySide")
    return _scatter_operators([(side,)])[0]


def interface_operator(plus: BoundarySide, minus: BoundarySide) -> ScatterOperator:
    """Welded-interface law for traces incoming from the + side.

    The + side's frame has its conormal pointing into the + material; the
    - side is seen from the flipped frame.  Continuity [u] = 0 and traction
    balance give the two outgoing traces.
    """
    _check_instance(plus, BoundarySide, "plus must be a BoundarySide")
    _check_instance(minus, BoundarySide, "minus must be a BoundarySide")
    return _scatter_operators([(plus, minus)])[0]


def _scatter_operators(laws: list) -> list:
    """The ScatterOperator of each law, given by its sides: (side,) for a
    free surface, (plus, minus) for a welded interface.

    Each law's checks run in the order of `free_surface_operator` and
    `interface_operator`: the - side's frame, the sides' impedances (read
    through each BoundarySide, so what is built is reused), E_c not the
    whole space on every side, then sigma_min/sigma_max of the matrix the law
    inverts.  A stage runs for every law before the next, so a list raises
    its first failure in that order.  The shared stacks come first: the
    outgoing mode projectors of every side, one SVD and one inverse of the
    matrices the laws invert.  Then each law is compiled alone from its own
    sides, so it gets bit for bit what it gets built alone.
    """
    mats, zins = [], []
    for law in laws:
        plus = law[0]
        if len(law) == 1:
            mats.append(plus.z("outgoing"))
            zins.append(plus.z("incoming"))
            continue
        fp, fm = plus.frame, law[1].frame
        if not (np.array_equal(fm.nu, -fp.nu) and np.array_equal(fm.eta, fp.eta)
                and fm.tau == fp.tau):
            raise InvalidInput("the - side must be seen from the + side's flipped frame")
        zp_out, zp_in, zm_out = plus.z("outgoing"), plus.z("incoming"), law[1].z("outgoing")
        mats.append(zp_out + zm_out)
        zins.append(zp_in - zp_out)
    _stacked_projectors([side for law in laws for side in law])
    for law in laws:
        if all(side.projectors().dim_ec == 3 for side in law):
            raise NoIncomingMode("frame is elliptic: nothing propagates" if len(law) == 1
                                 else "frame is elliptic on both sides")
    mats = np.array(mats)
    for law, (high, _, low) in zip(laws, _lapack.svdvals(mats).tolist()):
        if low <= INVERTIBLE_MARGIN * high:
            what = "z_out" if len(law) == 1 else "z+_out + z-_out"
            raise NonEllipticOperator(f"{what} is numerically singular "
                                      f"(sigma_min/sigma_max = {low / high:.2e})")
    out = []
    for law, t in zip(laws, -_lapack.inv(mats) @ np.array(zins)):
        # per real outgoing s of each side (a law that passed has one) psi_s T
        # and -tau/2 A'(s), then per side pi_c T and T
        maps = [t] if len(law) == 1 else [t - _EYE, t]
        projectors = [side.projectors() for side in law]
        tags, coefficients, left, right, modes = zip(*[
            (tag, (side.poly.a0, side.poly.a1_sym), p.psi[s], tm, s)
            for tag, side, p, tm in zip("+-", law, projectors, maps) for s in sorted(p.psi)])
        coef = np.array(coefficients)
        forms = -law[0].frame.tau * 0.5 * _slope(coef[:, 0], coef[:, 1],
                                                 np.array(modes)[:, None, None])
        side_maps = np.array([(p.pi_c @ tm, tm) for p, tm in zip(projectors, maps)])
        out.append(ScatterOperator(dict(zip("+-", law)), tags, modes,
                                   np.array(left) @ np.array(right), forms, side_maps))
    return out


def reflect_free_surface(m: Material, frame: BoundaryFrame,
                         incoming: TraceField) -> ScatterResult:
    """Zero-traction reflection f = -z_out^{-1} z_in g."""
    return free_surface_operator(BoundarySide(m, frame)).apply(incoming)


def transmit_interface(m_plus: Material, m_minus: Material,
                       frame: BoundaryFrame, incoming: TraceField) -> ScatterResult:
    """Welded-interface scattering of a trace incoming from the + side."""
    return interface_operator(*_sides((m_plus, m_minus), frame)).apply(incoming)


def energy_balance(r: ScatterResult) -> dict:
    """Flux ledger for a scattering result.

    Verifies that evanescent components carry no flux and reports the
    relative balance residual.
    """
    _check_instance(r, ScatterResult, "r must be a ScatterResult")
    report = {
        "incident_flux": r.incident_flux,
        "balance_residual": r.balance_residual,
        "sides": {},
    }
    for tag, side in r.sides.items():
        ev = side.evanescent
        z = side.side.z()
        ev_flux = flux_form(z, side.side.frame.tau, ev)
        scale = max(np.linalg.norm(z) * max(float(np.vdot(ev, ev).real), 1e-300), 1e-300)
        report["sides"][tag] = {
            "mode_fluxes": dict(side.fluxes),
            "total_flux": side.total_flux,
            "evanescent_flux": ev_flux,
            "evanescent_flux_ok": bool(abs(ev_flux) <= EVANESCENT_FLUX_TOL * scale),
        }
    return report
