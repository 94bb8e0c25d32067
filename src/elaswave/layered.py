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
    _records,
)
from .materials import (
    Material,
    _check_instance,
    _check_vector,
    _is_int,
    _is_real,
    _json_number,
    _real_array,
    check_strong_convexity,
    material_from_dict,
)
from .scatter import _scatter_operators, _scatter_pairs, side_incoming_mode

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
            _check_instance(mat, Material, "material must be a Material")
            ok, mineig = check_strong_convexity(mat.stiffness)
            if not ok:
                raise StackFileError(f"material {mat.name!r} is not strongly convex "
                                     f"(min eigenvalue {mineig:g})")

    def material(self, layer: int) -> Material:
        return self.halfspace if layer == len(self.layers) else self.layers[layer][0]

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


def _check_framed(a) -> None:
    """InvalidInput unless a is a polynomial with a frame and a density, whose
    rho tau a delay reads (one from boundary_polynomial has both)."""
    _check_instance(a, QuadraticMatrixPolynomial, "a must be a QuadraticMatrixPolynomial")
    if a.frame is None or a.rho is None:
        raise InvalidInput("a group delay needs a polynomial with a frame and a density")


def group_delay(a: QuadraticMatrixPolynomial, s: float, v: np.ndarray) -> float:
    """ds/dtau of a real eigenvalue branch, by implicit differentiation.

    ds/dtau = 2 rho tau (v|v) / (A'(s)v|v) for v in ker A(s); the vertical
    travel time across thickness d is d |ds/dtau|.  InvalidInput where a
    carries no frame or density.
    """
    _check_framed(a)
    _check_slowness(s)
    _check_vector(v, "v")
    norm_sq = float(np.vdot(v, v).real)
    denom = float(np.real(np.vdot(v, a.derivative(s) @ v)))
    if abs(denom) <= DELAY_FORM_TOL * max(a.scale * norm_sq, 1e-300):
        raise GlancingSpectrum("group delay undefined: derivative form vanishes")
    return 2.0 * a.rho * a.frame.tau * norm_sq / denom


def mode_delay(a: QuadraticMatrixPolynomial, classification: SpectrumClassification,
               s: float) -> float | None:
    """`group_delay` shared by every v in ker A(s), or None when it depends on v.

    It reads the form (A'(s)v|v) on the kernel that `classification` holds
    for its real eigenvalue group at s (`EigenvalueGroup.sign_form`, taken at
    the group's value): where it is c times the identity (to 1e-12 relative),
    as for every simple eigenvalue, the delay is 2 rho tau / c.  None also
    when no single non-glancing group lies at s or c fails `group_delay`'s
    size test, as a caller falling back to `group_delay` then finds.  A delay
    needs a frame and a density (rho tau): InvalidInput where a lacks them,
    as from `group_delay`.
    """
    _check_framed(a)
    _check_instance(classification, SpectrumClassification,
                    "classification must be a SpectrumClassification")
    _check_slowness(s)
    near = GROUPING_TOL * (1.0 + classification.stroh_norm)
    groups = [g for g in classification.real_groups if abs(g.value.real - s) <= near]
    if len(groups) != 1 or groups[0].glancing:
        return None
    # c and ||form - c I|| on Python numbers, cheaper than numpy's for at most 3 x 3
    k = len(groups[0].sign_form)
    entries = groups[0].sign_form.ravel().tolist()
    c = sum(entries[::k + 1]).real / k
    entries[::k + 1] = [d - c for d in entries[::k + 1]]
    off = math.hypot(*map(abs, entries))
    if off > 1e-12 * abs(c) or abs(c) <= DELAY_FORM_TOL * max(a.scale, 1e-300):
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
    back, on = (layer, _REVERSED[direction]), (layer + _STEP[direction], direction)
    return [(*(back if tag == "+" else on), -s) for tag, s in zip(law.tags, law.modes)]


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


class _TraceSetUp:
    """What a trace reads at its (eta, tau), each piece built once (`_set_up`):
    `sides` (the half-space has one, the - side of the lowest interface) and
    the laws of the entry stack (`laws`) by (layer, direction), each mode's
    `mode_delay` (`delays`) by (layer, direction, s), and `plans`:
    each law met so far to its first row in `mode_maps` and `mode_forms`
    (the planned laws' `mode_maps` and `forms`, stacked) and its modes' (layer,
    direction, s, shared crossing time), or to its build's error."""

    def __init__(self, stack: LayerStack, eta: np.ndarray, tau: float, source_layer: int):
        self.stack, self.source_layer = stack, source_layer
        # each law's frame has its conormal pointing back into the incoming layer
        self.frames = {"down": BoundaryFrame(_UP, eta, tau), "up": BoundaryFrame(-_UP, eta, tau)}
        self.sides, self.laws, self.delays, self.plans = {}, {}, {}, {}
        self.mode_maps = self.mode_forms = np.empty((0, 3, 3))
        self.src = None     # the source's TraceField

    def side(self, layer, direction) -> BoundarySide:
        if (layer, direction) not in self.sides:
            self.sides[layer, direction] = BoundarySide(self.stack.material(layer),
                                                        self.frames[direction])
        return self.sides[layer, direction]

    def law_sides(self, layer, direction) -> tuple:
        """The sides of the law a segment meets: (side,) at the free surface,
        (plus, minus) at an interface."""
        here = self.side(layer, direction)
        if direction == "up" and layer == 0:
            return (here,)
        return here, self.side(layer + _STEP[direction], _REVERSED[direction])

    def crossing_time(self, layer, direction, s, v=None) -> float | None:
        """thickness |delay| of a wave of mode s toward side (layer, direction):
        the delay every wave of the mode shares (`mode_delay`, once per key),
        else `group_delay` on the wave's own trace v, or None without one."""
        key = (layer, direction, s)
        if key not in self.delays:
            sd = self.side(layer, direction)
            self.delays[key] = mode_delay(sd.poly, sd.classification, s)
        delay = self.delays[key]
        if delay is None and v is not None:
            delay = group_delay(self.side(layer, direction).poly, s, v)
        return None if delay is None else self.stack.thickness(layer) * abs(delay)

    def join(self, keys) -> None:
        """Plan the law met from each (layer, direction) of keys: the stack's, else built alone."""
        first, joined = len(self.mode_maps), []
        for key in keys:
            try:
                law = self.laws.get(key) or _scatter_operators([self.law_sides(*key)])[0]
            except NumericalDomainError as exc:
                # without its traceback, whose frames would hold `plans` in a cycle
                self.plans[key] = exc.with_traceback(None)
                continue
            self.plans[key] = (first, [(*wave, None if wave[0] == len(self.stack.layers)
                                        else self.crossing_time(*wave))
                                       for wave in _outgoing(*key, law)])
            first += len(self.plans[key][1])
            joined.append(law)
        self.mode_maps = np.concatenate([self.mode_maps] + [law.mode_maps for law in joined])
        self.mode_forms = np.concatenate([self.mode_forms] + [law.forms for law in joined])


def _set_up(stack: LayerStack, eta: np.ndarray, tau: float, source_layer: int,
            source_mode: int) -> _TraceSetUp:
    """A trace's set-up.  At fixed (eta, tau) every side and law depends only
    on (layer, direction): the law met going down from layer L joins sides
    (L, down) and (L+1, up), the one met going up (L, up) and (L-1, down).
    Each is built here as a stack entry, bit for bit what it is built alone:
      * all 2n + 1 sides (`boundary._stacked_sides`), then the outgoing
        factorizations of those that do not glance (`_stacked_factorizations`);
      * the source, from its side's incoming factorization, so a trace
        without that mode fails before any law is built;
      * the laws whose sides do not glance and whose + side has a real mode
        (no segment meets the others), and their plans.
    If the sides' stack raises, every side and law is built alone on first
    use; if the factorizations' or the laws' stack raises, each side
    factorizes, or each law is built, alone on first use.
    """
    setup = _TraceSetUp(stack, eta, tau, source_layer)
    n_layers = len(stack.layers)
    directions = [("up", "down")] * n_layers + [("up",)]
    try:
        built = _stacked_sides([(stack.material(layer), [setup.frames[d] for d in dirs])
                                for layer, dirs in enumerate(directions)])
    except ElasticError:    # each side is then built alone on first use
        built = []
    with suppress(ElasticError):    # each side then factorizes alone on first use
        _stacked_factorizations([sd for row in built for sd in row
                                 if not sd.classification.glancing])
    setup.sides.update(((layer, d), sd) for layer, (dirs, row) in enumerate(zip(directions, built))
                       for d, sd in zip(dirs, row))
    # With the sides stacked, the laws a segment can meet (no glancing side, a real mode on
    # the + side: without one its layer has none) are built as stacks once the source is taken.
    due = [(layer, d) for layer in range(n_layers) for d in ("up", "down")
           if built and setup.side(layer, d).classification.has_real
           and not any(sd.classification.glancing for sd in setup.law_sides(layer, d))]
    setup.src = side_incoming_mode(setup.side(source_layer, "down"), source_mode)
    if due:
        with suppress(ElasticError):    # each law is then built alone on first use
            setup.laws = dict(zip(due, _scatter_operators([setup.law_sides(*key)
                                                           for key in due])))
    setup.join(setup.laws)
    return setup


def _expand(setup: _TraceSetUp, max_events: int, amplitude_floor: float) -> tuple:
    """The rows of a trace's events (the dicts of their RayEvents' fields),
    its surface arrivals as (time, s, |amplitude|, flux, uid) and whether it
    was truncated.  The queue grows one generation (tree depth) at a time:
    each segment pairs with every outgoing mode of its law (planned when
    first met), all pairs scatter in one `scatter._scatter_pairs` and the
    children are numbered in pair order.  A segment meeting a law whose
    build failed ends as a glancing leaf with the error as its note; where
    a mode's delay depends on the trace, `group_delay` runs per child.
    """
    src, n_layers, plans = setup.src, len(setup.stack.layers), setup.plans
    t0 = setup.crossing_time(setup.source_layer, "down", src.s_in, src.g)
    src_amp = float(np.linalg.norm(src.g))
    floor = amplitude_floor * src_amp

    # One row per event, its RayEvent's fields in order.
    rows = [{"uid": 0, "parent": None, "layer": setup.source_layer, "direction": "down",
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
                setup.join([key])
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
        amps, fluxes = _scatter_pairs(setup.mode_maps[modes], setup.mode_forms[modes],
                                      amps[traces])
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
                    t_child = time + setup.crossing_time(lay, dirn, s, amp)
                except NumericalDomainError as exc:
                    status, note = "glancing", str(exc)
            if status == "propagating":
                children.append(len(rows))
                at.append(p)
            rows.append({"uid": len(rows), "parent": uid, "layer": lay, "direction": dirn,
                         "s": s, "amplitude": amp, "time": t_child, "depth": depth,
                         "flux": flux, "status": status, "note": note})
        generation = rest + children
    return rows, arrivals, bool(generation)


def trace_plane_wave(stack: LayerStack, eta, tau: float,
                     source_layer: int = 0, source_mode: int = 0,
                     max_events: int = 64,
                     amplitude_floor: float = 1e-4) -> EventTree:
    """Breadth-first expansion of a plane-wave source through the stack.

    The source, incoming mode number `source_mode` of its layer's lower
    boundary, is flux-normalized and travels down from the layer's top at
    time zero.  Each interaction branches into all real outgoing modes above
    the floor, `amplitude_floor` times the source's amplitude; evanescent
    components are dropped.  `_set_up` builds every side and law once, and
    `_expand` grows the tree from them: the first `max_events` segments, in
    child order, scatter and the rest end as truncated.  Each event's row
    becomes its RayEvent's __dict__.
    """
    _check_instance(stack, LayerStack, "stack must be a LayerStack")
    for name, value in (("max_events", max_events), ("source_layer", source_layer)):
        if not _is_int(value):
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
    if not 0 <= source_layer < len(stack.layers):
        raise ValidationError("source layer out of range")
    setup = _set_up(stack, eta, tau, source_layer, source_mode)
    rows, arrivals, truncated = _expand(setup, max_events, amplitude_floor)
    return EventTree(_records(RayEvent, rows), eta, tau, setup.src.flux,
                     _sorted_arrivals(arrivals), truncated)


def arrivals_rows(tree: EventTree) -> list[tuple]:
    """Flat (time, layer, mode, |amplitude|, flux) rows of surface arrivals."""
    _check_instance(tree, EventTree, "tree must be an EventTree")
    return [(t, 0, s, amp, fl) for (t, s, amp, fl) in tree.arrivals]


def leaf_flux(tree: EventTree) -> float:
    """Total energy flux of all terminal segments."""
    _check_instance(tree, EventTree, "tree must be an EventTree")
    return float(sum(e.flux for e in tree.events
                     if e.status in ("halfspace", "floored", "truncated", "glancing")))
