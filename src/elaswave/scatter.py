"""Reflection and transmission of boundary traces with energy accounting.

All laws act on Dirichlet traces.  At a free surface zero traction gives
f = -z_out^{-1} z_in g; at a welded interface continuity of displacement
and traction gives f- = -(z+_out + z-_out)^{-1}(z+_in - z+_out) g and
f+ = f- - g.  Each law is linear in g and depends only on the frame and
the materials, so it is built once per frame as a `ScatterOperator` from
the `BoundarySide` of each side and applied to every trace that meets it.
At build time the law is compiled, as with Kennett's reflection and
transmission matrices, into one fixed 3x3 map per outgoing mode and side,
so a block of traces scatters in a few contractions.
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

INVERTIBLE_MARGIN = 1e-8    # a law's matrix with sigma_min/sigma_max at or below this is singular
EVANESCENT_FLUX_TOL = 1e-9  # evanescent flux above this, relative to ||z|| |pi_c f|^2, is flagged


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


@dataclass(frozen=True)
class WaveBlock:
    """Outgoing content on one side for a block of N incoming traces.

    Column n of every array belongs to column n of the incoming block.
    """

    modes: tuple                      # real outgoing eigenvalues s, ascending
    amplitudes: np.ndarray            # (len(modes), 3, N): psi_s f per mode
    fluxes: np.ndarray                # (len(modes), N): -tau (A'(s)f_s|f_s)/2
    evanescent: np.ndarray            # (3, N): pi_c f
    traces: np.ndarray                # (3, N): the outgoing traces f


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


def _check_invertible(mat: np.ndarray, what: str) -> np.ndarray:
    sv = np.linalg.svd(mat, compute_uv=False)
    if sv[-1] <= INVERTIBLE_MARGIN * sv[0]:
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

    Construction compiles each side's share of the law: its trace map T
    (f = T g), then per real outgoing s, ascending, the amplitude map psi_s T
    and the flux form -tau/2 A'(s), and the evanescent map pi_c T.
    """

    minv: np.ndarray
    zin: np.ndarray
    sides: dict                       # side tag -> BoundarySide

    def __post_init__(self):
        tau = self.frame.tau
        t = -self.minv @ self.zin
        maps = {"+": t - np.eye(3), "-": t} if "-" in self.sides else {"+": t}
        compiled = {}     # tag -> (modes, [psi_s T..., pi_c T, T], [-tau/2 A'(s)...])
        for tag, side in self.sides.items():
            projectors, tm = side.projectors(), maps[tag]
            modes = tuple(sorted(projectors.psi))
            stack = [projectors.psi[s] @ tm for s in modes] + [projectors.pi_c @ tm, tm]
            forms = [-tau * 0.5 * side.poly.derivative(s) for s in modes]
            compiled[tag] = (modes, np.array(stack), np.array(forms).reshape(-1, 3, 3))
        object.__setattr__(self, "_compiled", compiled)

    @property
    def frame(self) -> BoundaryFrame:
        return self.sides["+"].frame

    def apply_block(self, g: np.ndarray) -> dict:
        """Scatter a 3 x N block of incoming traces: side tag -> WaveBlock.

        Every column of the result is bit for bit what that column gives
        alone, so a trace's outcome does not depend on its companions.
        """
        # einsum without `optimize` sums each entry in a fixed order and never
        # hands the product to BLAS, whose kernels may round a column
        # differently depending on how many columns come with it.
        blocks = {}
        for tag, (modes, stack, forms) in self._compiled.items():
            out = np.einsum("kij,jn->kin", stack, g)
            amps = out[:len(modes)]
            flux = np.einsum("kin,kin->kn", amps.conj(),
                             np.einsum("kij,kjn->kin", forms, amps)).real
            blocks[tag] = WaveBlock(modes, amps, flux, out[-2], out[-1])
        return blocks

    def apply(self, incoming: TraceField) -> ScatterResult:
        g = incoming.g
        sides = {}
        for tag, block in self.apply_block(g[:, None]).items():
            amps = {s: block.amplitudes[k, :, 0] for k, s in enumerate(block.modes)}
            fluxes = {s: float(block.fluxes[k, 0]) for k, s in enumerate(block.modes)}
            sides[tag] = SideWaves(block.traces[:, 0], amps, block.evanescent[:, 0],
                                   fluxes, self.sides[tag])
        inc = _incident_flux(self.sides["+"], g, self.frame.tau)
        out = sum(side.total_flux for side in sides.values())
        residual = abs(inc - out) / max(abs(inc), 1e-300)
        return ScatterResult(incoming, sides, inc, residual)


def free_surface_operator(side: BoundarySide) -> ScatterOperator:
    """Zero-traction law f = -z_out^{-1} z_in g at the side's frame."""
    z_out, z_in = side.z("outgoing"), side.z("incoming")
    if side.projectors().dim_ec == 3:
        raise NoIncomingMode("frame is elliptic: nothing propagates")
    minv = _check_invertible(z_out, "z_out")
    return ScatterOperator(minv, z_in, {"+": side})


def interface_operator(plus: BoundarySide, minus: BoundarySide) -> ScatterOperator:
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
    minv = _check_invertible(zp_out + zm_out, "z+_out + z-_out")
    return ScatterOperator(minv, zp_in - zp_out, {"+": plus, "-": minus})


def reflect_free_surface(m: Material, frame: BoundaryFrame,
                         incoming: TraceField) -> ScatterResult:
    """Zero-traction reflection f = -z_out^{-1} z_in g."""
    return free_surface_operator(BoundarySide(m, frame)).apply(incoming)


def transmit_interface(m_plus: Material, m_minus: Material,
                       frame: BoundaryFrame, incoming: TraceField) -> ScatterResult:
    """Welded-interface scattering of a trace incoming from the + side."""
    return interface_operator(BoundarySide(m_plus, frame),
                              BoundarySide(m_minus, frame.flipped())).apply(incoming)


def energy_balance(r: ScatterResult) -> dict:
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
            "evanescent_flux_ok": bool(abs(ev_flux) <= EVANESCENT_FLUX_TOL * scale),
        }
    return report
