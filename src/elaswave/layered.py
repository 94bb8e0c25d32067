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
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    GlancingSpectrum,
    NumericalDomainError,
    StackFileError,
    ValidationError,
)
from .boundary import BoundarySide
from .factorization import BoundaryFrame, QuadraticMatrixPolynomial
from .materials import Material, check_strong_convexity, material_from_dict
from .scatter import (
    TraceField,
    free_surface_operator,
    interface_operator,
    side_incoming_mode,
)

_UP = np.array([0.0, 0.0, 1.0])
_REVERSED = {"up": "down", "down": "up"}


@dataclass(frozen=True)
class LayerStack:
    """Homogeneous layers over a half-space, free surface on top."""

    layers: tuple            # of (Material, thickness)
    halfspace: Material

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
    if doc.get("free_surface", True) is not True:
        raise StackFileError("a stack is capped by a free surface; "
                             "free_surface must be true or absent")
    return LayerStack(layers, half)


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


def _next_layer(layer: int, direction: str) -> int:
    return layer + 1 if direction == "down" else layer - 1


def trace_plane_wave(stack: LayerStack, eta, tau: float,
                     source_layer: int = 0, source_direction: str = "down",
                     source_mode: int | float = 0,
                     max_events: int = 64,
                     amplitude_floor: float = 1e-4) -> EventTree:
    """Breadth-first expansion of a plane-wave source through the stack.

    The source is a flux-normalized pure mode launched at the far boundary
    of its layer at time zero.  Each interaction branches into all real
    outgoing modes above the amplitude floor; evanescent components are
    recorded but never propagated.  At fixed (eta, tau) every boundary side
    and scattering law depends only on (layer, direction), so each is built
    once per call: the law met going down from layer L joins sides (L, down)
    and (L+1, up), the one met going up (L, up) and (L-1, down), and
    crossing times read the side a segment travels toward.
    """
    if max_events < 1:
        raise ValidationError("max_events must be at least 1")
    eta = np.asarray(eta, dtype=float)
    if eta.shape == (2,):
        eta = np.array([eta[0], eta[1], 0.0])
    if eta.shape != (3,):
        raise ValidationError(f"eta must have 2 or 3 components, got shape {eta.shape}")
    if abs(eta[2]) > 0:
        raise ValidationError("eta must be horizontal")
    n_layers = len(stack.layers)
    if not 0 <= source_layer < n_layers:
        raise ValidationError("source layer out of range")
    if source_direction not in ("up", "down"):
        raise ValidationError("source direction must be 'up' or 'down'")

    frames = {d: _frame_for(d, eta, tau) for d in ("up", "down")}
    sides = {}   # (layer, direction) -> BoundarySide
    laws = {}    # (layer, direction) -> ScatterOperator, or the error its
                 # build raised (every segment meeting it then glances)

    def side(layer, direction):
        if (layer, direction) not in sides:
            sides[layer, direction] = BoundarySide(stack.material(layer), frames[direction])
        return sides[layer, direction]

    def scatter_law(layer, direction):
        key = (layer, direction)
        if key not in laws:
            try:
                if direction == "up" and layer == 0:
                    laws[key] = free_surface_operator(side(layer, direction))
                else:
                    laws[key] = interface_operator(
                        side(layer, direction),
                        side(_next_layer(layer, direction), _REVERSED[direction]))
            except NumericalDomainError as exc:
                # without its traceback, whose frame would hold `laws` in a cycle
                laws[key] = exc.with_traceback(None)
        return laws[key]

    def crossing_time(layer, direction, s, v):
        return stack.thickness(layer) * abs(group_delay(side(layer, direction).poly,
                                                        s, v))

    src = side_incoming_mode(side(source_layer, source_direction), source_mode)
    t0 = crossing_time(source_layer, source_direction, src.s_in, src.g)
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
                events[seg.uid] = replace(seg, status="truncated")
            truncated = True
            break
        seg = queue.pop(0)
        n_scattered += 1
        if seg.direction == "up" and seg.layer == 0:
            arrivals.append((seg.time, seg.s,
                             float(np.linalg.norm(seg.amplitude)), seg.flux))
        law = scatter_law(seg.layer, seg.direction)
        if isinstance(law, NumericalDomainError):
            events[seg.uid] = replace(seg, status="glancing", note=str(law))
            continue
        result = law.apply(TraceField(seg.amplitude, law.frame, seg.s, "+",
                                      seg.flux))
        events[seg.uid] = replace(seg, status="scattered")

        for tag, waves in result.sides.items():
            # The + side turns back into the segment's layer; the - side
            # carries on into the next one.
            if tag == "+":
                lay, dirn = seg.layer, _REVERSED[seg.direction]
            else:
                lay, dirn = _next_layer(seg.layer, seg.direction), seg.direction
            ev_norm = float(np.linalg.norm(waves.evanescent))
            if ev_norm > 0:
                evanescent_records.append((seg.uid, tag, ev_norm))
            for s_out in sorted(waves.amplitudes):
                amp = waves.amplitudes[s_out]
                flux = waves.fluxes[s_out]
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
                try:
                    dt = crossing_time(lay, dirn, -s_out, amp)
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
