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

from .errors import (
    GlancingSpectrum,
    NumericalDomainError,
    StackFileError,
    ValidationError,
)
from .boundary import BoundarySide
from .factorization import (
    GROUPING_TOL,
    BoundaryFrame,
    QuadraticMatrixPolynomial,
    SpectrumClassification,
)
from .materials import Material, check_strong_convexity, material_from_dict
from .scatter import free_surface_operator, interface_operator, side_incoming_mode

_UP = np.array([0.0, 0.0, 1.0])
_REVERSED = {"up": "down", "down": "up"}
# A derivative form (A'(s)v|v) at or below this times ||A|| (v|v) has no group delay.
DELAY_FORM_TOL = 1e-10


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


def group_delay(a: QuadraticMatrixPolynomial, s: float, v: np.ndarray) -> float:
    """ds/dtau of a real eigenvalue branch, by implicit differentiation.

    ds/dtau = 2 rho tau (v|v) / (A'(s)v|v) for v in ker A(s); the vertical
    travel time across thickness d is d |ds/dtau|.
    """
    tau = a.frame.tau
    denom = float(np.real(np.vdot(v, a.derivative(s) @ v)))
    scale = a.scale * float(np.vdot(v, v).real)
    if abs(denom) <= DELAY_FORM_TOL * max(scale, 1e-300):
        raise GlancingSpectrum("group delay undefined: derivative form vanishes")
    return 2.0 * a.rho * tau * float(np.vdot(v, v).real) / denom


def mode_delay(a: QuadraticMatrixPolynomial, classification: SpectrumClassification,
               s: float) -> float | None:
    """`group_delay` shared by every v in ker A(s), or None when it depends on v.

    The kernel is the one `classification` already holds for its real
    eigenvalue group at s, so no new SVD is taken.  (A'(s)v|v) / (v|v) is
    the same for all kernel vectors when the derivative form on the kernel
    is c times the identity (to 1e-12 relative), as it always is for a
    simple eigenvalue; the delay is then 2 rho tau / c.  None also when no
    single non-glancing group lies at s or c fails `group_delay`'s size
    test, so that a caller falling back to `group_delay` on its own vector
    meets the same outcome there.
    """
    near = GROUPING_TOL * (1.0 + classification.stroh_norm)
    groups = [g for g in classification.real_groups if abs(g.value.real - s) <= near]
    if len(groups) != 1 or groups[0].glancing or not groups[0].geo_mult:
        return None
    kern = groups[0].kernel
    form = kern.conj().T @ a.derivative(s) @ kern
    c = float(np.mean(np.diag(form).real))
    if (np.linalg.norm(form - c * np.eye(len(form))) > 1e-12 * abs(c)
            or abs(c) <= DELAY_FORM_TOL * max(a.scale, 1e-300)):
        return None
    return 2.0 * a.rho * a.frame.tau / c


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
    arrivals: tuple          # (time, s_in, |amplitude|, flux) at the free surface,
                             # in time order, ties by s (see _sorted_arrivals)
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


def _column_norms(block: np.ndarray) -> np.ndarray:
    """2-norms of the length-3 columns of (..., 3, N), entry by entry, so
    a column's norm does not depend on the block it sits in."""
    sq = block.real * block.real + block.imag * block.imag
    return np.sqrt(sq[..., 0, :] + sq[..., 1, :] + sq[..., 2, :])


def _sorted_arrivals(rows: list) -> tuple:
    """(time, s, |amplitude|, flux) rows in time order.

    Times within 1e-12 relative of each other count as one, since paths of
    equal physical length (P then S against S then P) reach the surface at
    times that differ only by roundoff; such ties go by (s, arriving segment
    uid), so the order does not rest on the last bits of a sum.  `rows`
    carry the uid as a fifth entry, which the result drops.
    """
    def by_mode(tie):
        return sorted(tie, key=lambda row: (row[1], row[4]))

    ordered, tie = [], []
    for row in sorted(rows, key=lambda row: row[0]):
        if tie and row[0] - tie[0][0] > 1e-12 * abs(row[0]):
            ordered.extend(by_mode(tie))
            tie = []
        tie.append(row)
    ordered.extend(by_mode(tie))
    return tuple(row[:4] for row in ordered)


# Fields of a RayEvent, in order, for the per-event rows of trace_plane_wave.
_LAYER, _DIRECTION, _S, _AMPLITUDE, _TIME, _DEPTH, _FLUX, _STATUS, _NOTE = range(2, 11)


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

    The queue is expanded one generation (tree depth) at a time: the
    segments of a generation that meet the same law scatter as one block,
    and their children are then numbered in the order the segments hold.
    The first `max_events` segments, counted in that order, scatter; the
    rest end as truncated.
    """
    if max_events < 1:
        raise ValidationError("max_events must be at least 1")
    if not 0.0 <= amplitude_floor < np.inf:
        raise ValidationError(f"amplitude_floor must be finite and non-negative, "
                              f"got {amplitude_floor}")
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
    delays = {}  # (layer, direction, s) -> mode_delay, None where per trace

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
        key = (layer, direction, s)
        if key not in delays:
            sd = side(layer, direction)
            delays[key] = mode_delay(sd.poly, sd.classification, s)
        delay = delays[key]
        if delay is None:
            delay = group_delay(side(layer, direction).poly, s, v)
        return stack.thickness(layer) * abs(delay)

    src = side_incoming_mode(side(source_layer, source_direction), source_mode)
    t0 = crossing_time(source_layer, source_direction, src.s_in, src.g)
    src_amp = float(np.linalg.norm(src.g))
    floor = amplitude_floor * src_amp

    # One row per event, in RayEvent field order, and its amplitude's norm.
    rows = [[0, None, source_layer, source_direction, src.s_in, src.g, t0, 0,
             src.flux, "propagating", "source"]]
    norms = [src_amp]
    arrivals = []            # (time, s, |amplitude|, flux, uid)
    evanescent_records = []
    n_scattered = 0
    truncated = False
    generation = [0]

    while generation:
        budget = max_events - n_scattered
        if budget <= 0:
            for uid in generation:
                rows[uid][_STATUS] = "truncated"
            truncated = True
            break
        head, rest = generation[:budget], generation[budget:]
        n_scattered += len(head)

        # One block per law met in this generation; column k of a block
        # is the k-th segment of the generation meeting that law.
        members = {}
        for uid in head:
            members.setdefault((rows[uid][_LAYER], rows[uid][_DIRECTION]), []).append(uid)
        outcome, column = {}, {}
        for (layer, direction), uids in members.items():
            law = scatter_law(layer, direction)
            if isinstance(law, NumericalDomainError):
                continue
            blocks = law.apply_block(np.stack([rows[u][_AMPLITUDE] for u in uids], axis=1))
            parts = []
            for tag, block in blocks.items():
                # The + side turns back into the segment's layer; the - side
                # carries on into the next one.
                if tag == "+":
                    target = (layer, _REVERSED[direction])
                else:
                    target = (_next_layer(layer, direction), direction)
                amp_norms = _column_norms(block.amplitudes).tolist()
                modes = [(-s_out, block.amplitudes[j], block.fluxes[j].tolist(), amp_norms[j])
                         for j, s_out in enumerate(block.modes)]
                parts.append((tag, target, _column_norms(block.evanescent).tolist(), modes))
            outcome[layer, direction] = parts
            column.update((u, k) for k, u in enumerate(uids))

        children = []
        for uid in head:
            seg = rows[uid]
            layer, direction, time = seg[_LAYER], seg[_DIRECTION], seg[_TIME]
            if direction == "up" and layer == 0:
                arrivals.append((time, seg[_S], norms[uid], seg[_FLUX], uid))
            law = laws[layer, direction]
            if isinstance(law, NumericalDomainError):
                seg[_STATUS], seg[_NOTE] = "glancing", str(law)
                continue
            seg[_STATUS] = "scattered"
            k, depth = column[uid], seg[_DEPTH] + 1
            for tag, (lay, dirn), ev_norms, modes in outcome[layer, direction]:
                if ev_norms[k] > 0:
                    evanescent_records.append((uid, tag, ev_norms[k]))
                for s, amps, fluxes, amp_norms in modes:
                    norm, amp = amp_norms[k], amps[:, k]
                    if norm <= floor:
                        if norm > 0:
                            rows.append([len(rows), uid, lay, dirn, s, amp, time, depth,
                                         fluxes[k], "floored", ""])
                            norms.append(norm)
                        continue
                    status, note, t_child = "propagating", "", time
                    if lay == n_layers:
                        status = "halfspace"
                    else:
                        try:
                            t_child = time + crossing_time(lay, dirn, s, amp)
                        except NumericalDomainError as exc:
                            status, note = "glancing", str(exc)
                    if status == "propagating":
                        children.append(len(rows))
                    rows.append([len(rows), uid, lay, dirn, s, amp, t_child, depth,
                                 fluxes[k], status, note])
                    norms.append(norm)
        generation = rest + children

    events = tuple(RayEvent(*row) for row in rows)
    return EventTree(events, eta, tau, src.flux, _sorted_arrivals(arrivals),
                     tuple(evanescent_records), truncated)


def arrivals_rows(tree: EventTree) -> list[tuple]:
    """Flat (time, layer, mode, |amplitude|, flux) rows of surface arrivals."""
    return [(t, 0, s, amp, fl) for (t, s, amp, fl) in tree.arrivals]


def leaf_flux(tree: EventTree) -> float:
    """Total energy flux of all terminal segments."""
    return float(sum(e.flux for e in tree.events
                     if e.status in ("halfspace", "floored", "truncated",
                                     "glancing")))
