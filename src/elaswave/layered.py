"""Plane-wave event-tree simulator for flat layered media.

Horizontal slowness (eta) and frequency (tau) are conserved labels; the
simulator tracks, per wave segment, only the layer, vertical direction,
mode, trace amplitude, and accumulated vertical travel time.  Between
interfaces trace amplitudes are constant (constant-coefficient transport);
every interaction applies the trace scattering laws of `scatter`.

Coordinates: e3 points up, the free surface caps layer 0, layers are
numbered downward, and the half-space lies below the last layer.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import GlancingSpectrum, NumericalDomainError, StackFileError
from .factorization import BoundaryFrame, QuadraticMatrixPolynomial, boundary_polynomial
from .materials import Material, check_strong_convexity, material_from_dict
from .scatter import TraceField, incoming_mode, reflect_free_surface, transmit_interface

_UP = np.array([0.0, 0.0, 1.0])


@dataclass(frozen=True)
class LayerStack:
    """Homogeneous layers over a half-space, free surface on top."""

    layers: tuple            # of (Material, thickness)
    halfspace: Material
    free_surface: bool = True

    def __post_init__(self):
        for _, d in self.layers:
            if not d > 0:
                raise StackFileError(f"layer thickness must be positive, got {d}")
        for mat in [m for m, _ in self.layers] + [self.halfspace]:
            ok, mineig = check_strong_convexity(mat.stiffness)
            if not ok:
                raise StackFileError(
                    f"material {mat.name!r} is not strongly convex "
                    f"(min eigenvalue {mineig:g})")

    def material(self, layer: int) -> Material:
        if layer == len(self.layers):
            return self.halfspace
        return self.layers[layer][0]

    def thickness(self, layer: int) -> float:
        return self.layers[layer][1]


def load_stack(path: str) -> LayerStack:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise StackFileError(f"cannot read stack file {path}: {exc}") from exc
    try:
        layers = tuple((material_from_dict(entry["material"]), float(entry["thickness"]))
                       for entry in doc["layers"])
        half = material_from_dict(doc["halfspace"])
    except (KeyError, TypeError, ValueError) as exc:
        raise StackFileError(f"malformed stack document: {exc}") from exc
    return LayerStack(layers, half, bool(doc.get("free_surface", True)))


def group_delay(a: QuadraticMatrixPolynomial, s: float, v: np.ndarray,
                rho: float | None = None, tol: float = 1e-10) -> float:
    """ds/dtau of a real eigenvalue branch, by implicit differentiation.

    ds/dtau = 2 rho tau (v|v) / (A'(s)v|v) for v in ker A(s); the vertical
    travel time across thickness d is d |ds/dtau|.
    """
    if rho is None:
        rho = a.rho
    tau = a.frame.tau
    denom = float(np.real(np.vdot(v, a.derivative(s) @ v)))
    scale = a.scale * float(np.vdot(v, v).real)
    if abs(denom) <= tol * max(scale, 1e-300):
        raise GlancingSpectrum("group delay undefined: derivative form vanishes")
    return 2.0 * rho * tau * float(np.vdot(v, v).real) / denom


@dataclass(frozen=True)
class RayEvent:
    """One wave segment of the event tree.

    `s` is the mode label in the frame of the segment's terminal boundary
    (the one it travels toward); `time` is the arrival time there.  Leaf
    statuses: halfspace (transmitted below), floored (amplitude below the
    floor), truncated (event budget), glancing (branch abandoned).
    """

    uid: int
    parent: int | None
    layer: int
    direction: str           # 'up' | 'down'
    s: float
    amplitude: np.ndarray
    time: float
    depth: int
    flux: float
    status: str = "propagating"
    note: str = ""


@dataclass(frozen=True)
class EventTree:
    events: tuple
    eta: np.ndarray
    tau: float
    source_flux: float
    arrivals: tuple          # (time, s_in, |amplitude|, flux) at the free surface
    evanescent_records: tuple  # (event uid, side, |pi_c f|)
    truncated: bool

    def to_dict(self) -> dict:
        return {
            "eta": list(map(float, self.eta)),
            "tau": float(self.tau),
            "source_flux": float(self.source_flux),
            "truncated": bool(self.truncated),
            "events": [
                {
                    "uid": e.uid, "parent": e.parent, "layer": e.layer,
                    "direction": e.direction, "s": float(e.s),
                    "amplitude_re": [float(x) for x in e.amplitude.real],
                    "amplitude_im": [float(x) for x in e.amplitude.imag],
                    "time": float(e.time), "depth": e.depth,
                    "flux": float(e.flux), "status": e.status, "note": e.note,
                }
                for e in self.events
            ],
            "arrivals": [
                {"time": float(t), "s": float(s), "amplitude": float(amp),
                 "flux": float(fl)}
                for (t, s, amp, fl) in self.arrivals
            ],
        }


def _frame_for(seg_direction: str, eta: np.ndarray, tau: float) -> BoundaryFrame:
    """Scattering frame whose conormal points back into the incoming layer."""
    nu = _UP if seg_direction == "down" else -_UP
    return BoundaryFrame(nu, eta, tau)


def _crossing_time(stack: LayerStack, layer: int, frame: BoundaryFrame,
                   m: Material, s: float, v: np.ndarray) -> float:
    a = boundary_polynomial(m, frame)
    return stack.thickness(layer) * abs(group_delay(a, s, v))


def trace_plane_wave(stack: LayerStack, eta, tau: float,
                     source_layer: int = 0, source_direction: str = "down",
                     source_mode: int | float = 0,
                     max_events: int = 64,
                     amplitude_floor: float = 1e-4) -> EventTree:
    """Breadth-first expansion of a plane-wave source through the stack.

    The source is a flux-normalized pure mode launched at the far boundary
    of its layer at time zero.  Each interaction branches into all real
    outgoing modes above the amplitude floor; evanescent components are
    recorded but never propagated.
    """
    if max_events < 1:
        raise ValueError("max_events must be at least 1")
    eta = np.asarray(eta, dtype=float)
    if eta.shape == (2,):
        eta = np.array([eta[0], eta[1], 0.0])
    if abs(eta[2]) > 0:
        raise ValueError("eta must be horizontal")
    n_layers = len(stack.layers)
    if not 0 <= source_layer < n_layers:
        raise ValueError("source layer out of range")

    frame0 = _frame_for(source_direction, eta, tau)
    m0 = stack.material(source_layer)
    src = incoming_mode(m0, frame0, source_mode)
    t0 = _crossing_time(stack, source_layer, frame0, m0, src.s_in, src.g)
    src_amp = float(np.linalg.norm(src.g))

    events: list[RayEvent] = []
    uid = 0
    root = RayEvent(uid, None, source_layer, source_direction, src.s_in,
                    src.g, t0, 0, src.flux, "propagating", "source")
    events.append(root)
    uid += 1

    queue = [root]
    arrivals = []
    evanescent_records = []
    n_scattered = 0
    truncated = False

    while queue:
        if n_scattered >= max_events:
            for seg in queue:
                events[seg.uid] = RayEvent(
                    seg.uid, seg.parent, seg.layer, seg.direction, seg.s,
                    seg.amplitude, seg.time, seg.depth, seg.flux,
                    "truncated", seg.note)
            truncated = True
            break
        seg = queue.pop(0)
        n_scattered += 1
        frame = _frame_for(seg.direction, eta, tau)
        m_here = stack.material(seg.layer)
        incoming = TraceField(seg.amplitude, frame, seg.s, "+", seg.flux)

        try:
            if seg.direction == "up" and seg.layer == 0 and stack.free_surface:
                arrivals.append((seg.time, seg.s,
                                 float(np.linalg.norm(seg.amplitude)), seg.flux))
                result = reflect_free_surface(m_here, frame, incoming)
                children_spec = [("+", seg.layer, "down", result.sides["+"])]
            else:
                if seg.direction == "down":
                    other = seg.layer + 1
                    spec_sides = [("+", seg.layer, "up"), ("-", other, "down")]
                else:
                    other = seg.layer - 1
                    spec_sides = [("+", seg.layer, "down"), ("-", other, "up")]
                result = transmit_interface(m_here, stack.material(other),
                                            frame, incoming)
                children_spec = [(tag, lay, dirn, result.sides[tag])
                                 for tag, lay, dirn in spec_sides]
        except NumericalDomainError as exc:
            events[seg.uid] = RayEvent(seg.uid, seg.parent, seg.layer,
                                       seg.direction, seg.s, seg.amplitude,
                                       seg.time, seg.depth, seg.flux,
                                       "glancing", str(exc))
            continue

        events[seg.uid] = RayEvent(seg.uid, seg.parent, seg.layer,
                                   seg.direction, seg.s, seg.amplitude,
                                   seg.time, seg.depth, seg.flux,
                                   "scattered", seg.note)

        for tag, lay, dirn, side in children_spec:
            ev_norm = float(np.linalg.norm(side.evanescent))
            if ev_norm > 0:
                evanescent_records.append((seg.uid, tag, ev_norm))
            for s_out in sorted(side.amplitudes):
                amp = side.amplitudes[s_out]
                flux = side.fluxes[s_out]
                norm = float(np.linalg.norm(amp))
                if norm <= amplitude_floor * src_amp:
                    if norm > 0:
                        events.append(RayEvent(uid, seg.uid, lay, dirn,
                                               -s_out, amp, seg.time,
                                               seg.depth + 1, flux, "floored"))
                        uid += 1
                    continue
                if lay == n_layers:
                    events.append(RayEvent(uid, seg.uid, lay, dirn, -s_out,
                                           amp, seg.time, seg.depth + 1, flux,
                                           "halfspace"))
                    uid += 1
                    continue
                child_frame = _frame_for(dirn, eta, tau)
                try:
                    dt = _crossing_time(stack, lay, child_frame,
                                        stack.material(lay), -s_out, amp)
                except NumericalDomainError as exc:
                    events.append(RayEvent(uid, seg.uid, lay, dirn, -s_out,
                                           amp, seg.time, seg.depth + 1, flux,
                                           "glancing", str(exc)))
                    uid += 1
                    continue
                child = RayEvent(uid, seg.uid, lay, dirn, -s_out, amp,
                                 seg.time + dt, seg.depth + 1, flux,
                                 "propagating")
                events.append(child)
                queue.append(child)
                uid += 1

    arrivals.sort(key=lambda row: (row[0], row[1]))
    return EventTree(tuple(events), eta, tau, src.flux, tuple(arrivals),
                     tuple(evanescent_records), truncated)


def arrivals_rows(tree: EventTree) -> list[tuple]:
    """Flat (time, layer, mode, |amplitude|, flux) rows of surface arrivals."""
    return [(t, 0, s, amp, fl) for (t, s, amp, fl) in tree.arrivals]


def leaf_flux(tree: EventTree) -> float:
    """Total energy flux of all terminal segments."""
    return float(sum(e.flux for e in tree.events
                     if e.status in ("halfspace", "floored", "truncated",
                                     "glancing")))
