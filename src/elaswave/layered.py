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
    _records,
    _slope,
)
from .materials import (
    Material,
    _is_real,
    _json_number,
    _real_array,
    check_strong_convexity,
    material_from_dict,
)
from .scatter import _mode_stack, _scatter_operators, _scatter_pairs, side_incoming_mode

_UP = np.array([0.0, 0.0, 1.0])
_REVERSED = {"up": "down", "down": "up"}
_STEP = {"down": 1, "up": -1}     # layer + _STEP[direction]: the next layer a segment enters
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


def _outgoing(layer: int, direction: str, law) -> list:
    """(layer, direction, s) of the waves each outgoing mode of the law met from (layer,
    direction) sends: back into that layer on the + side, on into the next on the - side."""
    tags, modes, _, _ = law.compiled
    back, on = (layer, _REVERSED[direction]), (layer + _STEP[direction], direction)
    return [(*(back if tag == "+" else on), -s) for tag, s in zip(tags, modes)]


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
        share one crossing time, thickness |delay|.

    If the sides' stack raises, each side and law is built alone on first
    use instead; if their factorizations' stack raises, the sides keep their
    classifications and each factorizes alone on first use; if the laws'
    stack raises, each law is built alone.  A law whose build fails keeps
    its error, and every segment meeting it ends as a glancing leaf with the
    error as its note.  Where the shared delay depends on the trace,
    `group_delay` runs per child.

    A law gets a plan when first met: its rows in one stack of every planned
    law's mode maps and flux forms (`scatter._mode_stack`), and where each
    mode's waves go and the crossing time they share.  The queue is expanded
    one generation (tree depth) at a time: each segment pairs with every
    outgoing mode of its law, all pairs scatter in one `scatter._scatter_pairs`
    and the children are numbered in pair order.  The first `max_events`
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
    eta = _real_array(eta, None, "eta must be 2 or 3 real numbers", "frame must be finite",
                      ValidationError)
    if eta.shape == (2,):
        eta = np.array([eta[0], eta[1], 0.0])
    if eta.shape != (3,):
        raise ValidationError(f"eta must have 2 or 3 components, got shape {eta.shape}")
    if abs(eta[2]) > 0:
        raise ValidationError("eta must be horizontal")
    n_layers = len(stack.layers)
    if not 0 <= source_layer < n_layers:
        raise ValidationError("source layer out of range")

    # each law's frame has its conormal pointing back into the incoming layer
    frames = {"down": BoundaryFrame(_UP, eta, tau), "up": BoundaryFrame(-_UP, eta, tau)}
    sides = {}   # (layer, direction) -> BoundarySide; the half-space has one
                 # side, the - side of the lowest interface
    delays = {}  # (layer, direction, s) -> mode_delay, None where per trace
    plans = {}   # (layer, direction) -> its law's first row in the mode stack and modes'
                 # (layer, direction, s, shared crossing time); or the build's error
    mode_maps = mode_forms = np.empty((0, 3, 3))    # the planned laws' `_mode_stack`

    def side(layer, direction):
        if (layer, direction) not in sides:
            sides[layer, direction] = BoundarySide(stack.material(layer), frames[direction])
        return sides[layer, direction]

    def law_sides(layer, direction):
        """The sides of the law a segment meets: (side,) at the free surface,
        (plus, minus) at an interface."""
        if direction == "up" and layer == 0:
            return (side(layer, direction),)
        return side(layer, direction), side(layer + _STEP[direction], _REVERSED[direction])

    def crossing_time(layer, direction, s, v):
        key = (layer, direction, s)
        if key not in delays:
            sd = side(layer, direction)
            delays[key] = mode_delay(sd.poly, sd.classification, s)
        delay = delays[key]
        if delay is None:
            delay = group_delay(side(layer, direction).poly, s, v)
        return stack.thickness(layer) * abs(delay)

    def join(keys):
        """Plan the law met from each (layer, direction) of keys: the stack's, else built alone."""
        nonlocal mode_maps, mode_forms
        first, joined = len(mode_maps), []
        for key in keys:
            try:
                law = laws.get(key) or _scatter_operators([law_sides(*key)])[0]
            except NumericalDomainError as exc:
                # without its traceback, whose frames would hold `plans` in a cycle
                plans[key] = exc.with_traceback(None)
                continue
            plans[key] = (first, [(*wave, None if delays.get(wave) is None else
                                   crossing_time(*wave, None)) for wave in _outgoing(*key, law)])
            first += len(plans[key][1])
            joined.append(law)
        mode_maps, mode_forms = _mode_stack(mode_maps, mode_forms, joined)

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
    laws = {}    # (layer, direction) -> ScatterOperator, of the stack
    if due:
        with suppress(ElasticError):    # each law is then built alone on first use
            laws = dict(zip(due, _scatter_operators([law_sides(*key) for key in due])))
    # The delays of the source's mode and of every (side, s) a built law
    # sends waves to, as one stack.
    targets = list(dict.fromkeys([(source_layer, "down", src.s_in)] + [
        wave for key, law in laws.items() for wave in _outgoing(*key, law) if wave[0] < n_layers]))
    delays.update(zip(targets, _mode_delays([
        (side(lay, dirn).poly, side(lay, dirn).classification, s) for lay, dirn, s in targets])))
    join(laws)
    t0 = crossing_time(source_layer, "down", src.s_in, src.g)
    src_amp = float(np.linalg.norm(src.g))
    floor = amplitude_floor * src_amp

    # One row per event, its RayEvent's fields in order.
    rows = [{"uid": 0, "parent": None, "layer": source_layer, "direction": "down",
             "s": src.s_in, "amplitude": src.g, "time": t0, "depth": 0,
             "flux": src.flux, "status": "propagating", "note": "source"}]
    arrivals = []            # (time, s, |amplitude|, flux, uid)
    budget = max_events      # segments yet to scatter
    generation = [0]
    # The last generation's amplitudes and norms, and the row of each child it sent on.
    amps, norms, at = src.g[None], [src_amp], [0]

    while generation:
        if budget <= 0:     # the generation stays, and the tree is truncated
            for uid in generation:
                rows[uid]["status"] = "truncated"
            break
        head, rest = generation[:budget], generation[budget:]   # a rest spends the budget
        budget -= len(head)

        # One (segment, outgoing mode of its law) pair per child, in child order.
        parents, traces, modes, waves = [], [], [], []
        for uid, row in zip(head, at):
            seg = rows[uid]
            key, time = (seg["layer"], seg["direction"]), seg["time"]
            if key == (0, "up"):
                arrivals.append((time, seg["s"], norms[row], seg["flux"], uid))
            if key not in plans:
                join([key])
            plan = plans[key]
            if isinstance(plan, NumericalDomainError):
                seg["status"], seg["note"] = "glancing", str(plan)
                continue
            seg["status"] = "scattered"
            first, outs = plan
            parents += [(uid, time, seg["depth"] + 1)] * len(outs)
            traces += [row] * len(outs)
            modes.extend(range(first, first + len(outs)))
            waves += outs
        amps, fluxes = _scatter_pairs(mode_maps[modes], mode_forms[modes], amps[traces])
        norms = _column_norms(amps.T).tolist()

        children, at = [], []
        for p, ((uid, time, depth), (lay, dirn, s, step), amp, flux, norm) in enumerate(zip(
                parents, waves, list(amps), fluxes.tolist(), norms)):
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
                at.append(p)
            rows.append({"uid": len(rows), "parent": uid, "layer": lay, "direction": dirn,
                         "s": s, "amplitude": amp, "time": t_child, "depth": depth,
                         "flux": flux, "status": status, "note": note})
        generation = rest + children

    return EventTree(_records(RayEvent, rows), eta, tau, src.flux, _sorted_arrivals(arrivals),
                     bool(generation))


def arrivals_rows(tree: EventTree) -> list[tuple]:
    """Flat (time, layer, mode, |amplitude|, flux) rows of surface arrivals."""
    return [(t, 0, s, amp, fl) for (t, s, amp, fl) in tree.arrivals]


def leaf_flux(tree: EventTree) -> float:
    """Total energy flux of all terminal segments."""
    return float(sum(e.flux for e in tree.events
                     if e.status in ("halfspace", "floored", "truncated",
                                     "glancing")))
