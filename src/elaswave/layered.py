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
import math
from contextlib import suppress
from dataclasses import dataclass

import numpy as np

from .errors import (
    ElasticError,
    GlancingSpectrum,
    InvalidInput,
    NumericalDomainError,
    StackFileError,
    ValidationError,
)
from .boundary import BoundarySide, _stacked_factorizations, _stacked_sides
from .factorization import (
    GROUPING_TOL,
    BoundaryFrame,
    QuadraticMatrixPolynomial,
    SpectrumClassification,
    _fro,
    _herm,
    _record,
    _slope,
)
from .materials import (
    Material,
    _is_real,
    _json_number,
    check_strong_convexity,
    material_from_dict,
)
from .scatter import _scatter_operators, side_incoming_mode

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
            if not _is_real(d):
                raise StackFileError(f"layer thickness must be a real number, got {d!r}")
            if not 0 < d < np.inf:
                raise StackFileError(f"layer thickness must be positive and finite, got {d}")
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
        layers = tuple((material_from_dict(entry["material"]), _json_number(entry["thickness"]))
                       for entry in doc["layers"])
        half = material_from_dict(doc["halfspace"])
    except (KeyError, TypeError, ValueError) as exc:
        raise StackFileError(f"malformed stack document: {exc}") from exc
    if doc.get("free_surface", True) is not True:
        raise StackFileError("a stack is capped by a free surface; "
                             "free_surface must be true or absent")
    return LayerStack(layers, half)


def _check_slowness(s) -> None:
    """InvalidInput unless s is a finite real number (not a bool)."""
    if not (_is_real(s) and math.isfinite(s)):
        raise InvalidInput(f"s must be a finite real number, got {s!r}")


def group_delay(a: QuadraticMatrixPolynomial, s: float, v: np.ndarray) -> float:
    """ds/dtau of a real eigenvalue branch, by implicit differentiation.

    ds/dtau = 2 rho tau (v|v) / (A'(s)v|v) for v in ker A(s); the vertical
    travel time across thickness d is d |ds/dtau|.
    """
    _check_slowness(s)
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
    _check_slowness(s)
    return _mode_delays([(a, classification, s)])[0]


def _mode_delays(requests: list) -> list:
    """mode_delay of each (polynomial, classification, s), bit for bit what
    it gets alone: the kernel forms and their tests run as one stack per
    kernel width."""
    delays = [None] * len(requests)
    by_width = {}       # kernel width -> [(request index, polynomial, s, kernel)]
    for i, (a, classification, s) in enumerate(requests):
        near = GROUPING_TOL * (1.0 + classification.stroh_norm)
        groups = [g for g in classification.real_groups if abs(g.value.real - s) <= near]
        if len(groups) == 1 and not groups[0].glancing and groups[0].geo_mult:
            kern = groups[0].kernel
            by_width.setdefault(kern.shape[1], []).append((i, a, s, kern))
    for width, due in by_width.items():
        index, polys, s, kern = zip(*due)
        kern = np.array(kern)
        slopes = _slope(np.array([a.a0 for a in polys]), np.array([a.a1_sym for a in polys]),
                        np.array(s)[:, None, None])
        form = _herm(kern) @ slopes @ kern      # (A'(s)v|v) on the kernel
        c = np.diagonal(form, axis1=1, axis2=2).real.mean(axis=1)
        off = _fro(form - c[:, None, None] * np.eye(width)).tolist()
        for i, a, c_i, off_i in zip(index, polys, c.tolist(), off):
            if not (off_i > 1e-12 * abs(c_i) or abs(c_i) <= DELAY_FORM_TOL * max(a.scale, 1e-300)):
                delays[i] = 2.0 * a.rho * a.frame.tau / c_i
    return delays


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
                    "amplitude_re": e.amplitude.real.tolist(),
                    "amplitude_im": e.amplitude.imag.tolist(),
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


def _target(layer: int, direction: str, tag: str) -> tuple:
    """(layer, direction) of the waves that the law met by a segment of
    (layer, direction) sends out on side `tag`: the + side turns back into
    the segment's layer, the - side carries on into the next one."""
    if tag == "+":
        return layer, _REVERSED[direction]
    return _next_layer(layer, direction), direction


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


def trace_plane_wave(stack: LayerStack, eta, tau: float,
                     source_layer: int = 0, source_mode: int = 0,
                     max_events: int = 64,
                     amplitude_floor: float = 1e-4) -> EventTree:
    """Breadth-first expansion of a plane-wave source through the stack.

    The source, incoming mode number `source_mode` of its layer's lower
    boundary, is flux-normalized and travels down from the layer's top at
    time zero.  Each interaction branches into all real outgoing modes above
    the amplitude floor; evanescent components are dropped, neither recorded
    nor propagated.  At fixed (eta, tau) every boundary side and scattering
    law depends only on (layer, direction), so each is built once per call:
    the law met going down from layer L joins sides (L, down) and (L+1, up),
    the one met going up (L, up) and (L-1, down), and crossing times read
    the side a segment travels toward.  Everything a trace reads is built at
    entry as stacks on the batched frame core, each entry bit for bit what
    it is built alone:
      * all 2n + 1 sides of an n-layer stack (`boundary._stacked_sides`):
        the polynomials of all materials on one stack of cores, one
        classification of all of them, then one outgoing factorization and
        impedance of those whose spectrum does not glance
        (`_stacked_factorizations`);
      * the source, from its side's incoming factorization and projectors,
        built alone first, so a trace without that mode fails before any
        law is built;
      * the laws whose sides do not glance and whose + side has a real
        mode (no segment meets the others): `scatter._scatter_operators`,
        each reading its + side's z_in as z_out^H (`BoundarySide.z`);
      * `mode_delay` of the source's mode and of every (side, s) those laws
        send waves to (`_mode_delays`), so that the children of one mode
        share one crossing time, thickness |delay|, in each generation.

    If the sides' stack raises, each side and law is built alone on first
    use instead; if their factorizations' stack raises, the sides keep their
    classifications and each factorizes alone on first use; if the laws'
    stack raises, each law is built alone.  A law whose build fails keeps
    its error, and every segment meeting it ends as a glancing leaf with the
    error as its note.  Where the shared delay depends on the trace,
    `group_delay` runs per child.

    The queue is expanded one generation (tree depth) at a time: the
    segments of a generation that meet the same law scatter as one block,
    on all the law's sides in one `apply_block`, and their children are
    then numbered in the order the segments hold.  The first `max_events`
    segments, counted in that order, scatter; the rest end as truncated.
    Each event is kept as a row, the dict of its RayEvent's fields, while
    the tree grows, and becomes that RayEvent's __dict__ at the end.
    """
    for name, value in (("max_events", max_events), ("source_layer", source_layer)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValidationError(f"{name} must be an integer, got {value!r}")
    for name, value in (("tau", tau), ("amplitude_floor", amplitude_floor)):
        if not _is_real(value):
            raise ValidationError(f"{name} must be a real number, got {value!r}")
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

    frames = {d: _frame_for(d, eta, tau) for d in ("up", "down")}
    sides = {}   # (layer, direction) -> BoundarySide; the half-space has one
                 # side, the - side of the lowest interface
    laws = {}    # (layer, direction) -> ScatterOperator, or the error its
                 # build raised (every segment meeting it then glances)
    delays = {}  # (layer, direction, s) -> mode_delay, None where per trace

    def side(layer, direction):
        if (layer, direction) not in sides:
            sides[layer, direction] = BoundarySide(stack.material(layer), frames[direction])
        return sides[layer, direction]

    def law_sides(layer, direction):
        """The sides of the law a segment meets: (side,) at the free surface,
        (plus, minus) at an interface."""
        if direction == "up" and layer == 0:
            return (side(layer, direction),)
        return side(layer, direction), side(_next_layer(layer, direction), _REVERSED[direction])

    def scatter_law(layer, direction):
        key = (layer, direction)
        if key not in laws:
            try:
                laws[key] = _scatter_operators([law_sides(layer, direction)])[0]
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

    directions = [("up", "down")] * n_layers + [("up",)]
    try:
        built = _stacked_sides([(stack.material(layer), [frames[d] for d in dirs])
                                for layer, dirs in enumerate(directions)])
    except ElasticError:    # each side is then built alone on first use
        built = []
    with suppress(ElasticError):    # each side then factorizes alone on first use
        _stacked_factorizations([sd for row in built for sd in row
                                 if not sd.classification.glancing])
    sides.update(((layer, d), sd) for layer, (dirs, row) in enumerate(zip(directions, built))
                 for d, sd in zip(dirs, row))
    # With the sides stacked, the laws a segment can meet (no glancing side, a real mode on
    # the + side: without one its layer has none) are built as stacks once the source is taken.
    due = [(layer, d) for layer in range(n_layers) for d in ("up", "down")
           if built and side(layer, d).classification.has_real
           and not any(sd.classification.glancing for sd in law_sides(layer, d))]
    src = side_incoming_mode(side(source_layer, "down"), source_mode)
    if due:
        with suppress(ElasticError):    # each law is then built alone on first use
            laws.update(zip(due, _scatter_operators([law_sides(*key) for key in due])))
    # The delays of the source's mode and of every (side, s) a built law
    # sends waves to, as one stack.
    targets = [(source_layer, "down", src.s_in)]
    for (layer, direction), law in laws.items():
        tags, modes, _, _ = law.compiled
        for tag, s_out in zip(tags, modes):
            lay, dirn = _target(layer, direction, tag)
            if lay < n_layers:
                targets.append((lay, dirn, -s_out))
    targets = list(dict.fromkeys(targets))
    delays.update(zip(targets, _mode_delays([
        (side(lay, dirn).poly, side(lay, dirn).classification, s) for lay, dirn, s in targets])))
    t0 = crossing_time(source_layer, "down", src.s_in, src.g)
    src_amp = float(np.linalg.norm(src.g))
    floor = amplitude_floor * src_amp

    # One row per event, its RayEvent's fields in order, and its amplitude's norm.
    rows = [{"uid": 0, "parent": None, "layer": source_layer, "direction": "down",
             "s": src.s_in, "amplitude": src.g, "time": t0, "depth": 0,
             "flux": src.flux, "status": "propagating", "note": "source"}]
    norms = [src_amp]
    arrivals = []            # (time, s, |amplitude|, flux, uid)
    n_scattered = 0
    truncated = False
    generation = [0]

    while generation:
        budget = max_events - n_scattered
        if budget <= 0:
            for uid in generation:
                rows[uid]["status"] = "truncated"
            truncated = True
            break
        head, rest = generation[:budget], generation[budget:]
        n_scattered += len(head)

        # One block per law met in this generation; column k of a block
        # is the k-th segment of the generation meeting that law.
        members = {}
        for uid in head:
            members.setdefault((rows[uid]["layer"], rows[uid]["direction"]), []).append(uid)
        outcome, column = {}, {}
        for (layer, direction), uids in members.items():
            law = scatter_law(layer, direction)
            if isinstance(law, NumericalDomainError):
                continue
            block = law.apply_block(np.stack([rows[u]["amplitude"] for u in uids], axis=1))
            modes = []
            for tag, s_out, amps, fluxes, amp_norms in zip(
                    block.tags, block.modes, block.amplitudes, block.fluxes.tolist(),
                    _column_norms(block.amplitudes).tolist()):
                lay, dirn = _target(layer, direction, tag)
                # a crossing time every child of the mode shares, or None
                delay = delays.get((lay, dirn, -s_out))
                step = None if delay is None else stack.thickness(lay) * abs(delay)
                modes.append((lay, dirn, -s_out, list(amps.T), fluxes, amp_norms, step))
            outcome[layer, direction] = modes
            column.update((u, k) for k, u in enumerate(uids))

        children = []
        for uid in head:
            seg = rows[uid]
            layer, direction, time = seg["layer"], seg["direction"], seg["time"]
            if direction == "up" and layer == 0:
                arrivals.append((time, seg["s"], norms[uid], seg["flux"], uid))
            law = laws[layer, direction]
            if isinstance(law, NumericalDomainError):
                seg["status"], seg["note"] = "glancing", str(law)
                continue
            seg["status"] = "scattered"
            k, depth = column[uid], seg["depth"] + 1
            for lay, dirn, s, amps, fluxes, amp_norms, step in outcome[layer, direction]:
                norm, amp = amp_norms[k], amps[k]
                status, note, t_child = "propagating", "", time
                if norm <= floor:
                    if norm <= 0:
                        continue
                    status = "floored"
                elif lay == n_layers:
                    status = "halfspace"
                elif step is not None:
                    t_child = time + step
                else:
                    try:
                        t_child = time + crossing_time(lay, dirn, s, amp)
                    except NumericalDomainError as exc:
                        status, note = "glancing", str(exc)
                if status == "propagating":
                    children.append(len(rows))
                rows.append({"uid": len(rows), "parent": uid, "layer": lay, "direction": dirn,
                             "s": s, "amplitude": amp, "time": t_child, "depth": depth,
                             "flux": fluxes[k], "status": status, "note": note})
                norms.append(norm)
        generation = rest + children

    events = tuple(_record(RayEvent, row) for row in rows)
    return EventTree(events, eta, tau, src.flux, _sorted_arrivals(arrivals), truncated)


def arrivals_rows(tree: EventTree) -> list[tuple]:
    """Flat (time, layer, mode, |amplitude|, flux) rows of surface arrivals."""
    return [(t, 0, s, amp, fl) for (t, s, amp, fl) in tree.arrivals]


def leaf_flux(tree: EventTree) -> float:
    """Total energy flux of all terminal segments."""
    return float(sum(e.flux for e in tree.events
                     if e.status in ("halfspace", "floored", "truncated",
                                     "glancing")))
