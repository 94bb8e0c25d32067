import dataclasses
import hashlib
import json
import os
import sys
from collections import Counter, defaultdict

import numpy as np
import pytest

from elaswave import boundary, factorization, layered
from elaswave.boundary import BoundarySide
from elaswave.errors import (
    GlancingSpectrum,
    IllConditionedJ,
    InvalidInput,
    NonEllipticOperator,
    NumericalDomainError,
    StackFileError,
    ValidationError,
)
from elaswave.factorization import (
    BoundaryFrame,
    QuadraticMatrixPolynomial,
    boundary_polynomial,
    classify_spectrum,
    kernel_basis,
)
from elaswave.layered import (
    LayerStack,
    RayEvent,
    arrivals_rows,
    group_delay,
    leaf_flux,
    load_stack,
    mode_delay,
    trace_plane_wave,
)
from elaswave.materials import (
    decompose_harmonic,
    make_isotropic,
    make_transversely_isotropic,
)
from elaswave.scatter import (
    TraceField,
    free_surface_operator,
    interface_operator,
    reflect_free_surface,
    transmit_interface,
)

from conftest import AXIS, NU, assert_per_side_products, random_triclinic, sample_frames

# bench/workloads.py: the stacks and frames of the layered_trace workload
sys.path.append(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                             "bench"))
import workloads  # noqa: E402

ETA = np.array([1.0, 0.0, 0.0])


@pytest.fixture(scope="module")
def soft():
    return make_isotropic(2.0, 1.0, 1.0, "soft")


@pytest.fixture(scope="module")
def rigid():
    return make_isotropic(800.0, 400.0, 100.0, "rigid")


@pytest.fixture(scope="module")
def ti_stack(soft, rigid):
    """iso / TI / iso layers over a stiff half-space."""
    ti = make_transversely_isotropic(1.0, 1.0, 0.05, 0.05, 0.02, AXIS, 1.0, "ti")
    mid = make_isotropic(4.0, 3.0, 3.0, "mid")
    return LayerStack(((soft, 0.5), (ti, 0.7), (mid, 0.6)), rigid)


@pytest.fixture(scope="module")
def fast_stack(soft):
    """A slow top layer over two fast ones, and a frame evanescent in the
    fast layers: the laws there have no real mode on their + side, and the
    one between the fast layers none on either side."""
    fast = make_isotropic(40.0, 20.0, 1.0, "fast")
    return LayerStack(((soft, 0.5), (fast, 0.7), (fast, 0.6)), fast), (0.4, 0.0), -1.0


# Hyperbolic everywhere; a mixed half-space; mixed layers over an elliptic
# half-space (evanescent content at every boundary).
TI_STACK_FRAMES = (((0.0, 0.0), -1.0), ((0.3, 0.2), -1.1), ((0.7, 0.0), -1.0))


@pytest.fixture(scope="module")
def bench_stack():
    """The seed-3 stack of the layered_trace benchmark workload (three
    layers, one TI, over a stiff half-space) and the frame of its 512-event
    trace, whose tree is cut part-way through depth 6 (as are 115 of the
    budgets 1-119)."""
    top = make_isotropic(1.8342596668574498, 0.9473621013192199, 1.0, "top")
    mid = make_transversely_isotropic(2.332560764690815, 1.3213621293767357,
                                      0.091882572844808, 0.07893003104378359,
                                      0.049790512981408346, AXIS, 1.2, "ti_layer")
    low = make_isotropic(2.795843348782247, 1.8844477745073172, 1.5, "low")
    half = make_isotropic(8.304609635858526, 4.891228190495662, 2.5, "halfspace")
    stack = LayerStack(((top, 1.013392146097091), (mid, 0.9445024163313422),
                        (low, 1.0694388571505125)), half)
    return stack, (-0.15724474847271366, -0.06433532676229438), -1.0451637967609757


class TestLayerStack:
    def test_rejects_nonpositive_thickness(self, soft, rigid):
        with pytest.raises(StackFileError):
            LayerStack(((soft, 0.0),), rigid)

    @pytest.mark.parametrize("d", [np.inf, np.nan], ids=["inf", "nan"])
    def test_rejects_nonfinite_thickness(self, soft, rigid, d):
        with pytest.raises(StackFileError, match="positive and finite"):
            LayerStack(((soft, d),), rigid)

    @pytest.mark.parametrize("d", ["1", True, None, 1.0 + 0j], ids=["str", "bool", "none",
                                                                   "complex"])
    def test_rejects_non_real_thickness(self, soft, rigid, d):
        with pytest.raises(StackFileError, match="^layer thickness must be a real number, got "):
            LayerStack(((soft, d),), rigid)

    def test_rejects_nonconvex(self, soft):
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            bad = make_isotropic(-3.0, 1.0, 1.0)
        with pytest.raises(StackFileError):
            LayerStack(((soft, 1.0),), bad)

    def test_load_stack(self, tmp_path, soft, rigid):
        doc = {
            "layers": [{"material": {"name": "soft", "density": 1.0,
                                     "stiffness": {"type": "isotropic",
                                                   "lambda": 2.0, "mu": 1.0}},
                        "thickness": 0.5}],
            "halfspace": {"name": "rigid", "density": 100.0,
                          "stiffness": {"type": "isotropic",
                                        "lambda": 800.0, "mu": 400.0}},
        }
        path = tmp_path / "stack.json"
        path.write_text(json.dumps(doc))
        stack = load_stack(str(path))
        assert len(stack.layers) == 1
        assert stack.thickness(0) == 0.5
        # a free surface caps every stack; the key may only confirm it
        doc["free_surface"] = True
        path.write_text(json.dumps(doc))
        assert load_stack(str(path)).thickness(0) == 0.5
        doc["free_surface"] = False
        path.write_text(json.dumps(doc))
        with pytest.raises(StackFileError, match="free_surface"):
            load_stack(str(path))

    def test_load_stack_rejects(self, tmp_path):
        path = tmp_path / "stack.json"
        with pytest.raises(StackFileError, match="cannot read"):
            load_stack(str(path))           # no such file
        half = {"density": 1.0, "stiffness": {"type": "isotropic", "lambda": 2.0, "mu": 1.0}}
        layer = {"material": half, "thickness": 1.0}
        for doc in ({"halfspace": half}, {"layers": [layer]}):
            path.write_text(json.dumps(doc))
            with pytest.raises(StackFileError, match="malformed"):
                load_stack(str(path))

    @pytest.mark.parametrize("thickness", [True, "1.0"], ids=["true", "str"])
    def test_load_stack_rejects_non_number_thickness(self, tmp_path, thickness):
        # true would read as 1.0 and "1.0" as 1.0; a thickness is a JSON number
        half = {"density": 1.0, "stiffness": {"type": "isotropic", "lambda": 2.0, "mu": 1.0}}
        path = tmp_path / "stack.json"
        path.write_text(json.dumps({"layers": [{"material": half, "thickness": thickness}],
                                    "halfspace": half}))
        with pytest.raises(StackFileError, match="expected a JSON number"):
            load_stack(str(path))


class TestGroupDelay:
    def test_normal_incidence_speeds(self, soft):
        # |ds/dtau| = 1/c per family at eta = 0
        fr = BoundaryFrame(NU, np.zeros(3), -1.0)
        a = boundary_polynomial(soft, fr)
        for s, c in ((1.0, 1.0), (0.5, 2.0)):   # shear, pressure
            v = kernel_basis(a, s)[:, 0]
            assert abs(group_delay(a, s, v)) == pytest.approx(1.0 / c,
                                                              rel=1e-10)

    def test_outgoing_sign(self, soft):
        fr = BoundaryFrame(NU, ETA, -1.5)
        a = boundary_polynomial(soft, fr)
        from elaswave.factorization import classify_spectrum
        for g in classify_spectrum(a).real_groups:
            if g.sign_type == "positive":    # outgoing for tau < 0
                # ds/dtau = 2 rho tau |v|^2 / (A'(s)v|v) has the sign of tau
                v = g.kernel[:, 0]
                assert group_delay(a, g.value.real, v) * fr.tau > 0

    def test_finite_difference(self, soft):
        fr = BoundaryFrame(NU, ETA, -1.5)
        a = boundary_polynomial(soft, fr)
        s = np.sqrt(1.5 ** 2 - 1.0)   # shear branch, c_s = 1
        v = kernel_basis(a, s)[:, 0]
        gd = group_delay(a, s, v)
        h = 1e-6
        branch = [np.sqrt((1.5 + sg * h) ** 2 - 1.0) for sg in (+1, -1)]
        fd = (branch[0] - branch[1]) / (2 * h) * np.sign(gd)
        assert abs(gd) == pytest.approx(abs(fd), rel=1e-6)

    def test_glancing_raises(self, soft):
        fr = BoundaryFrame(NU, ETA, -2.0)
        a = boundary_polynomial(soft, fr)
        # pressure branch exactly at its transition: s = 0
        with pytest.raises(GlancingSpectrum):
            group_delay(a, 0.0, np.array([1.0, 0.0, 0.0], dtype=complex))

    @pytest.mark.parametrize("s", [None, "x", True, 0.5 + 0j, np.nan, np.inf],
                             ids=["none", "str", "bool", "complex", "nan", "inf"])
    def test_rejects_bad_slowness(self, soft, s):
        a = boundary_polynomial(soft, BoundaryFrame(NU, ETA, -1.5))
        with pytest.raises(InvalidInput, match="^s must be a finite real number, got "):
            group_delay(a, s, np.array([1.0, 0.0, 0.0], dtype=complex))
        with pytest.raises(InvalidInput, match="^s must be a finite real number, got "):
            mode_delay(a, classify_spectrum(a), s)


class TestModeDelay:
    def test_matches_group_delay_on_kernel(self, soft, rotated_ti):
        # One delay per (side, s) serves every trace in the kernel: the 2-D
        # shear kernel of an isotropic layer at eta = 0, the simple
        # eigenvalues of a TI layer off its axis and those of seeded
        # triclinic and rotated TI frames.  The delay reads the sign form
        # the classification stores, kernel^H A'(value) kernel.
        rng = np.random.default_rng(7)
        ti = make_transversely_isotropic(2.3, 1.3, 0.09, 0.08, 0.05, AXIS, 1.2, "ti")
        cases = [(soft, np.zeros(3), -1.0), (ti, np.array([0.3, 0.2, 0.0]), -1.1),
                 (ti, np.array([0.3, 0.2, 0.0]), 1.1)]
        for m in (random_triclinic(rng), random_triclinic(rng), rotated_ti):
            cases += [(m, fr.eta, fr.tau) for frames in sample_frames(
                m, rng, 2, regions=("hyperbolic", "mixed")).values() for fr in frames]
        dims = []
        for m, eta, tau in cases:
            for nu in (NU, -NU):
                a = boundary_polynomial(m, BoundaryFrame(nu, eta, tau))
                cls = classify_spectrum(a)
                for g in cls.real_groups:
                    s = g.value.real
                    slope = a.derivative(s)
                    assert np.linalg.norm(g.sign_form - g.kernel.conj().T @ slope @ g.kernel) \
                        <= 1e-14 * np.linalg.norm(slope)
                    shared = mode_delay(a, cls, s)
                    assert shared is not None
                    dims.append(g.kernel.shape[1])
                    for _ in range(4):
                        c = rng.standard_normal(g.kernel.shape[1]) \
                            + 1j * rng.standard_normal(g.kernel.shape[1])
                        v = 10.0 ** rng.uniform(-3, 3) * (g.kernel @ c)
                        assert shared == pytest.approx(group_delay(a, s, v), rel=1e-12)
        assert 2 in dims and 1 in dims

    def test_declines_when_form_is_not_scalar(self):
        # A(s) = diag(s^2 - 1, 2 s^2 - 2, s^2 + 1): ker A(1) = span(e1, e2)
        # with derivative form diag(2, 4), so the delay depends on the trace
        # and the caller must fall back to group_delay per trace.
        frame = BoundaryFrame(NU, np.zeros(3), -1.0)
        a = QuadraticMatrixPolynomial(np.diag([1.0, 2.0, 1.0]), np.zeros((3, 3)),
                                      np.diag([-1.0, -2.0, 1.0]), frame, 1.0)
        cls = classify_spectrum(a)
        assert [g.kernel.shape[1] for g in cls.real_groups if g.value.real > 0] == [2]
        assert mode_delay(a, cls, 1.0) is None
        e1, e2 = np.eye(3, dtype=complex)[:2]
        assert group_delay(a, 1.0, e1) == pytest.approx(-1.0, rel=1e-14)
        assert group_delay(a, 1.0, e2) == pytest.approx(-0.5, rel=1e-14)

    @pytest.mark.parametrize("seed", [3, 7])
    def test_trees_take_no_slope_of_their_own(self, monkeypatch, tmp_path, seed):
        # Crossing times read the sign forms of the sides' classifications,
        # so a tree evaluates no A'(s) of its own.
        wl = workloads.LayeredTrace(seed, str(tmp_path))
        wl.setup()
        assert set(wl.budgets) == {64, 512}
        trees = [trace_plane_wave(wl.stack, eta, tau, max_events=budget)
                 for (eta, tau), budget in zip(wl.frames, wl.budgets)]

        def no_slope(*args):
            raise AssertionError("the tree evaluated A'(s)")

        with monkeypatch.context() as mp:
            mp.setattr(layered, "_slope", no_slope, raising=False)
            patched = [trace_plane_wave(wl.stack, eta, tau, max_events=budget)
                       for (eta, tau), budget in zip(wl.frames, wl.budgets)]
        assert [tree_digest(t) for t in patched] == [tree_digest(t) for t in trees]

    def test_per_trace_fallback_in_the_tree(self, ti_stack, monkeypatch):
        # With every shared delay declined, each crossing time comes from
        # group_delay on the child's own trace, and the tree keeps its shape.
        calls = []
        per_trace = layered.group_delay

        def counting(*args):
            calls.append(args[1])
            return per_trace(*args)

        for eta, tau in TI_STACK_FRAMES:
            shared = trace_plane_wave(ti_stack, eta, tau, max_events=40)
            with monkeypatch.context() as mp:
                # every shared delay, planned with a law or read per child, comes from mode_delay
                mp.setattr(layered, "mode_delay", lambda a, classification, s: None)
                mp.setattr(layered, "group_delay", counting)
                calls.clear()
                fallback = trace_plane_wave(ti_stack, eta, tau, max_events=40)
            propagated = [e for e in fallback.events
                          if e.status in ("propagating", "scattered", "truncated")]
            assert len(calls) == len(propagated)
            assert len(shared.events) == len(fallback.events)
            for e, f in zip(shared.events, fallback.events):
                assert (e.parent, e.layer, e.direction, e.s, e.status) == \
                    (f.parent, f.layer, f.direction, f.s, f.status)
                assert np.array_equal(e.amplitude, f.amplitude)
                assert e.time == pytest.approx(f.time, rel=1e-10)


class TestTracePlaneWave:
    def test_primary_reflection_time(self, soft, rigid):
        stack = LayerStack(((soft, 1.0),), rigid)
        tree = trace_plane_wave(stack, (0.0, 0.0), -1.0, max_events=8)
        # SH normal incidence: primary at 2 d / c_s = 2
        assert tree.arrivals[0][0] == pytest.approx(2.0, rel=1e-9)

    def test_flux_never_exceeds_source(self, soft, rigid):
        mid = make_isotropic(3.0, 2.0, 1.5, "mid")
        stack = LayerStack(((soft, 0.5), (mid, 0.8)), rigid)
        for eta, tau in (((0.0, 0.0), -1.0), ((0.4, 0.0), -1.1),
                         ((0.2, 0.1), -0.9)):
            tree = trace_plane_wave(stack, eta, tau, max_events=30)
            assert leaf_flux(tree) <= tree.source_flux + 1e-6

    def test_identical_layers_fictitious(self, soft, rigid):
        one = LayerStack(((soft, 1.0),), rigid)
        two = LayerStack(((soft, 0.5), (soft, 0.5)), rigid)
        t1 = trace_plane_wave(one, (0.0, 0.0), -1.0, max_events=12)
        t2 = trace_plane_wave(two, (0.0, 0.0), -1.0, max_events=40)
        a1 = [(round(t, 9), round(f, 9)) for t, _, _, f in
              [(t, 0, a, f) for t, _, a, f in t1.arrivals]][:3]
        a2 = [(round(t, 9), round(f, 9)) for t, _, a, f in t2.arrivals][:3]
        assert a1 == a2

    def test_deterministic(self, soft, rigid):
        stack = LayerStack(((soft, 1.0),), rigid)
        d1 = json.dumps(trace_plane_wave(stack, (0.3, 0.0), -1.2,
                                         max_events=20).to_dict(),
                        sort_keys=True)
        d2 = json.dumps(trace_plane_wave(stack, (0.3, 0.0), -1.2,
                                         max_events=20).to_dict(),
                        sort_keys=True)
        assert d1 == d2

    def test_time_increasing_along_paths(self, soft, rigid):
        stack = LayerStack(((soft, 1.0),), rigid)
        tree = trace_plane_wave(stack, (0.3, 0.0), -1.2, max_events=20)
        by_uid = {e.uid: e for e in tree.events}
        for e in tree.events:
            if e.parent is not None and e.status not in ("halfspace",
                                                         "floored"):
                assert e.time >= by_uid[e.parent].time

    def test_arrivals_rows(self, soft, rigid):
        stack = LayerStack(((soft, 1.0),), rigid)
        tree = trace_plane_wave(stack, (0.0, 0.0), -1.0, max_events=8)
        rows = arrivals_rows(tree)
        assert rows and all(r[1] == 0 for r in rows)

    def test_truncation_flag(self, soft, rigid):
        stack = LayerStack(((soft, 1.0),), rigid)
        tree = trace_plane_wave(stack, (0.0, 0.0), -1.0, max_events=2)
        assert tree.truncated

    def test_bad_inputs_are_validation_errors(self, soft, rigid):
        stack = LayerStack(((soft, 1.0),), rigid)
        for bad in ({"max_events": 0}, {"eta": (0.1, 0.0, 0.2)},
                    {"eta": (0.1,)}, {"source_layer": 1},
                    {"amplitude_floor": -1.0}, {"amplitude_floor": float("nan")},
                    {"amplitude_floor": float("inf")}, {"max_events": 2.5},
                    {"max_events": float("inf")}, {"max_events": True},
                    {"source_layer": 0.5}, {"source_layer": 0.0}, {"source_layer": False},
                    {"tau": True}, {"tau": np.bool_(True)}, {"tau": "-1.0"},
                    {"amplitude_floor": True}, {"amplitude_floor": False}):
            kwargs = {"eta": (0.0, 0.0), "tau": -1.0, **bad}
            with pytest.raises(ValidationError):
                trace_plane_wave(stack, **kwargs)

    @pytest.mark.parametrize("eta, dtype", [((0.1 + 1j, 0.0), "complex128"),
                                            ([True, False], "bool"),
                                            ((0.1, "0"), "<U32")],
                             ids=["complex", "bool", "str"])
    def test_eta_must_be_real(self, soft, rigid, eta, dtype):
        # neither loses its imaginary part nor reads True as 1.0
        stack = LayerStack(((soft, 1.0),), rigid)
        with pytest.raises(ValidationError) as exc:
            trace_plane_wave(stack, eta, -1.0)
        assert str(exc.value) == f"eta must be 2 or 3 real numbers, got {dtype} of shape (2,)"
        assert exc.value.exit_code == 2

    def test_eta_of_two_or_three_components(self, soft, rigid):
        stack = LayerStack(((soft, 1.0),), rigid)
        trees = [trace_plane_wave(stack, eta, -1.0, max_events=16)
                 for eta in ((0.1, 0.0), [0.1, 0.0, 0.0], np.array([0.1, 0.0]))]
        assert len({tree_digest(tree) for tree in trees}) == 1
        assert all(np.array_equal(tree.eta, [0.1, 0.0, 0.0]) for tree in trees)


def forced_failure(*args, **kwargs):
    """A stacked side build that fails, so that every side of a trace is
    built on its own on first use."""
    raise NumericalDomainError("forced stack failure")


def _layer_direction(stack, plus):
    """(layer, direction) of the segments that meet a law built on side plus."""
    layer = next(k for k in range(len(stack.layers)) if stack.material(k) is plus.material)
    return layer, "down" if plus.frame.nu[2] > 0 else "up"


class TestPrecomputedLaws:
    def test_events_match_one_shot_laws(self, ti_stack):
        # Every scattered event's children equal, bit for bit, what the
        # one-shot law gives for that event's incoming trace.
        for eta, tau in TI_STACK_FRAMES:
            tree = trace_plane_wave(ti_stack, eta, tau, max_events=40)
            children = defaultdict(list)
            for e in tree.events:
                children[e.parent].append(e)
            n_scattered = 0
            for seg in tree.events:
                if seg.status != "scattered":
                    continue
                n_scattered += 1
                nu = NU if seg.direction == "down" else -NU
                frame = BoundaryFrame(nu, tree.eta, tau)
                incoming = TraceField(seg.amplitude, seg.s, seg.flux)
                here = ti_stack.material(seg.layer)
                step = 1 if seg.direction == "down" else -1
                if seg.direction == "up" and seg.layer == 0:
                    result = reflect_free_surface(here, frame, incoming)
                else:
                    result = transmit_interface(
                        here, ti_stack.material(seg.layer + step), frame, incoming)
                back = "up" if seg.direction == "down" else "down"
                target = {"+": (seg.layer, back),
                          "-": (seg.layer + step, seg.direction)}
                expected = {(*target[tag], -s_out): (amp, side.fluxes[s_out])
                            for tag, side in result.sides.items()
                            for s_out, amp in side.amplitudes.items()}
                got = children[seg.uid]
                # zero-amplitude modes leave no child
                assert len(got) == sum(np.linalg.norm(amp) > 0
                                       for amp, _ in expected.values())
                for child in got:
                    amp, flux = expected[(child.layer, child.direction, child.s)]
                    assert np.array_equal(child.amplitude, amp)
                    assert np.array_equal(child.flux, flux)
            assert n_scattered > 0

    def test_each_law_built_once(self, ti_stack, monkeypatch):
        # Every law is built once per trace: all of them as one stack at
        # entry, or, with the stacked sides failing, each alone on first use.
        builds, sizes = Counter(), []
        stacked_laws = layered._scatter_operators

        def recording(laws):
            sizes.append(len(laws))
            for law in laws:
                builds[_layer_direction(ti_stack, law[0])] += 1
            return stacked_laws(laws)

        monkeypatch.setattr(layered, "_scatter_operators", recording)
        for stacked in (True, False):
            with monkeypatch.context() as mp:
                if not stacked:
                    mp.setattr(layered, "_stacked_sides", forced_failure)
                for eta, tau in TI_STACK_FRAMES:
                    builds.clear()
                    sizes.clear()
                    trace_plane_wave(ti_stack, eta, tau, max_events=64)
                    assert builds and max(builds.values()) == 1
                    assert sum(builds.values()) <= 2 * len(ti_stack.layers)
                    assert sizes == ([2 * len(ti_stack.layers)] if stacked
                                     else [1] * len(builds))

    def test_each_polynomial_classified_once(self, ti_stack, monkeypatch):
        # The laws met going down from layer L and up from layer L+1 share
        # their two sides; the source mode and crossing times read them too.
        # At eta = 0 a layer's up and down polynomials have equal
        # coefficients, so the key also holds the frame's conormal.  Every
        # classification runs through _classify: the stacked sides call it by
        # boundary's name and classify_spectrum, its stack of one, by
        # factorization's, so each entry of each stack at both names is
        # counted.  With the stacked build failing, every side is built alone
        # on first use.
        seen, sizes = Counter(), []
        stacked_classify = factorization._classify

        def counting(polys):
            sizes.append(len(polys))
            for a in polys:
                seen[(a.a0.tobytes(), a.a1.tobytes(), a.a2.tobytes(),
                      a.frame.nu.tobytes())] += 1
            return stacked_classify(polys)

        for mod in (factorization, boundary):
            monkeypatch.setattr(mod, "_classify", counting)
        for stacked in (True, False):
            with monkeypatch.context() as mp:
                if not stacked:
                    mp.setattr(layered, "_stacked_sides", forced_failure)
                for eta, tau in TI_STACK_FRAMES:
                    seen.clear()
                    sizes.clear()
                    trace_plane_wave(ti_stack, eta, tau, max_events=64)
                    assert seen and max(seen.values()) == 1
                    # one stack of all 2n + 1 sides, or one classify_spectrum per side
                    assert sizes == ([2 * len(ti_stack.layers) + 1] if stacked
                                     else [1] * len(seen))

    def test_failed_build_is_kept(self, ti_stack, monkeypatch):
        # A law that fails fails the stack of all laws; each law met is then
        # built alone once, the failing one too, whose error is kept.
        key = (1, "down")
        builds = []
        stacked_laws = layered._scatter_operators

        def failing(laws):
            keys = [_layer_direction(ti_stack, law[0]) for law in laws]
            builds.append(keys)
            if key in keys:
                raise NonEllipticOperator("forced failure")
            return stacked_laws(laws)

        monkeypatch.setattr(layered, "_scatter_operators", failing)
        tree = trace_plane_wave(ti_stack, (0.0, 0.0), -1.0, max_events=64)
        assert len(builds[0]) == 2 * len(ti_stack.layers) and key in builds[0]
        alone = Counter()
        for keys in builds[1:]:
            assert len(keys) == 1
            alone.update(keys)
        assert alone[key] == 1 and max(alone.values()) == 1
        hits = [e for e in tree.events if (e.layer, e.direction) == key
                and e.status not in ("floored", "truncated")]
        assert len(hits) > 1
        assert all(e.status == "glancing" and e.note == "forced failure"
                   for e in hits)
        assert {(e.layer, e.direction) for e in tree.events if e.status == "glancing"} == {key}
        assert leaf_flux(tree) == pytest.approx(tree.source_flux, rel=1e-9)


class TestGenerations:
    def test_budget_cuts_are_prefixes(self, bench_stack):
        # Cutting the queue after k scattered segments, part-way through a
        # generation or not, keeps every event created before the cut.
        stack, eta, tau = bench_stack
        full = trace_plane_wave(stack, eta, tau, max_events=512)
        assert full.truncated
        for k in range(1, 120):
            cut = trace_plane_wave(stack, eta, tau, max_events=k)
            assert len(cut.events) <= len(full.events)
            for e, f in zip(cut.events, full.events):
                assert (e.uid, e.parent, e.layer, e.direction, e.depth) == \
                    (f.uid, f.parent, f.layer, f.direction, f.depth)
                assert (e.s, e.time, e.flux) == (f.s, f.time, f.flux)
                assert np.array_equal(e.amplitude, f.amplitude)
                if e.status != f.status:
                    assert e.status == "truncated" and f.status in ("scattered", "glancing")
            assert sum(e.status in ("scattered", "glancing") for e in cut.events) == k

    def test_arrival_ties_by_mode_and_uid(self, soft):
        # Paths with the same legs in another order (P down, S up, P down
        # against S down, P up, P down) reach the surface at times that
        # differ only by roundoff; such ties are ordered by mode, then by the
        # arriving segment's uid, never by those last bits.
        stack = LayerStack(((soft, 1.0),), make_isotropic(4.0, 3.0, 3.0, "mid"))
        tree = trace_plane_wave(stack, (0.3, 0.0), -1.0, max_events=60)
        arriving = {(e.time, e.s, e.flux): e.uid for e in tree.events
                    if (e.layer, e.direction) == (0, "up")
                    and e.status in ("scattered", "glancing")}
        rows = [(t, s, arriving[t, s, fl]) for t, s, _, fl in tree.arrivals]
        assert len(rows) == len(arriving)
        groups = [[rows[0]]]
        for row in rows[1:]:
            if row[0] - groups[-1][0][0] > 1e-12 * abs(row[0]):
                groups.append([])
            groups[-1].append(row)
        assert [g[0][0] for g in groups] == sorted(g[0][0] for g in groups)
        same_mode_ties = 0
        for g in groups:
            assert [r[1:] for r in g] == sorted(r[1:] for r in g)
            same_mode_ties += len(g) - len({r[1] for r in g})
        assert same_mode_ties > 0


def tree_digest(tree) -> str:
    return hashlib.sha256(json.dumps(tree.to_dict(), sort_keys=True).encode()).hexdigest()


def recording_stacked_sides(monkeypatch) -> list:
    """The side stacks each trace builds, in build order."""
    built = []

    def record(*args):
        built.append(boundary._stacked_sides(*args))
        return built[-1]

    monkeypatch.setattr(layered, "_stacked_sides", record)
    return built


class TestStackedSides:
    """A trace builds all its sides as stacks at entry; its tree is, byte for
    byte, the tree whose sides are each built alone on first use."""

    def assert_same_as_sides_alone(self, monkeypatch, stack, eta, tau, budget):
        tree = trace_plane_wave(stack, eta, tau, max_events=budget)
        with monkeypatch.context() as mp:
            mp.setattr(layered, "_stacked_sides", forced_failure)
            alone = trace_plane_wave(stack, eta, tau, max_events=budget)
        assert tree_digest(tree) == tree_digest(alone)
        assert len(tree.events) == len(alone.events)
        for e, f in zip(tree.events, alone.events):
            assert np.array_equal(e.amplitude, f.amplitude)
        return tree

    @pytest.mark.parametrize("budget", [1, 2, 64])
    def test_trees_match_sides_built_alone(self, ti_stack, bench_stack, monkeypatch, budget):
        built = recording_stacked_sides(monkeypatch)
        for eta, tau in TI_STACK_FRAMES:
            self.assert_same_as_sides_alone(monkeypatch, ti_stack, eta, tau, budget)
        self.assert_same_as_sides_alone(monkeypatch, *bench_stack, budget)
        # every trace built its 2n + 1 sides as stacks
        assert [sum(map(len, sides)) for sides in built] == [7] * 4

    def test_glancing_side(self, bench_stack, monkeypatch):
        # At the half-space's shear transition (|eta| = 1, tau^2 = mu / rho)
        # its double root s = 0 glances: the side gets no outgoing
        # factorization from the stack, and the law above it fails on first
        # use, as it does when built alone.
        stack, eta, _ = bench_stack
        half = stack.halfspace
        tau = -float(np.sqrt(decompose_harmonic(half.stiffness).mu / half.density))
        built = recording_stacked_sides(monkeypatch)
        tree = self.assert_same_as_sides_alone(monkeypatch, stack, eta / np.linalg.norm(eta),
                                               tau, 64)
        glancing = [side for stack_sides in built[0] for side in stack_sides
                    if side.classification.glancing]
        assert [side.material for side in glancing] == [half]
        assert ("factorization", "outgoing") not in glancing[0]._built
        notes = {e.note for e in tree.events if e.status == "glancing"}
        assert notes == {"spectrum has a glancing real eigenvalue"}

    def test_failing_outgoing_stack(self, ti_stack, monkeypatch):
        # An outgoing factorization stack that raises leaves each side to
        # factorize alone, outside the stack; the sides keep the one
        # classification stack of all 2n + 1 of them, and none is
        # classified alone.
        trees = [trace_plane_wave(ti_stack, eta, tau, max_events=64)
                 for eta, tau in TI_STACK_FRAMES]
        stacks, classified = [], []

        def failing(polys, *args):
            stacks.append(len(polys))
            raise IllConditionedJ("forced failure")

        def classifying(polys, _real=boundary._classify):
            classified.append(len(polys))
            return _real(polys)

        monkeypatch.setattr(boundary, "_factorize", failing)
        monkeypatch.setattr(boundary, "_classify", classifying)
        monkeypatch.setattr(boundary, "classify_spectrum", lambda a: pytest.fail(
            "a side was classified alone"))
        for tree, (eta, tau) in zip(trees, TI_STACK_FRAMES):
            again = trace_plane_wave(ti_stack, eta, tau, max_events=64)
            assert tree_digest(again) == tree_digest(tree)
            for e, f in zip(again.events, tree.events):
                assert np.array_equal(e.amplitude, f.amplitude)
        assert len(stacks) == len(TI_STACK_FRAMES) and min(stacks) > 1
        assert classified == [2 * len(ti_stack.layers) + 1] * len(TI_STACK_FRAMES)

    def test_sides_match_fresh_sides(self, ti_stack, bench_stack, monkeypatch):
        built = recording_stacked_sides(monkeypatch)
        for eta, tau in TI_STACK_FRAMES:
            trace_plane_wave(ti_stack, eta, tau, max_events=64)
        trace_plane_wave(*bench_stack, max_events=64)
        n_factorized = 0
        for side in (side for sides in built for stack_sides in sides for side in stack_sides):
            fresh = BoundarySide(side.material, side.frame)
            for name in ("a0", "a1", "a2"):
                assert np.array_equal(getattr(side.poly, name), getattr(fresh.poly, name))
            for mine, theirs in zip(side.classification.schur, fresh.classification.schur):
                assert np.array_equal(mine, theirs)
            if side.classification.glancing:
                continue
            # the stack built the outgoing factorization and z, not first use
            assert {("factorization", "outgoing"), ("z", "outgoing")} <= set(side._built)
            f, g = side.factorization(), fresh.factorization()
            assert (f.sigma, f.direction, f.tau) == (g.sigma, g.direction, g.tau)
            for name in ("q", "q_sharp", "q_spectrum"):
                assert np.array_equal(getattr(f, name), getattr(g, name))
            assert np.array_equal(side.z(), fresh.z())
            n_factorized += 1
        assert n_factorized == 7 * 4


def same_bits(x, y) -> bool:
    x, y = np.asarray(x), np.asarray(y)
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def glancing_frame(stack, eta) -> tuple:
    """(eta, tau) with |eta| = 1 along eta and tau at the shear transition of
    the isotropic half-space, tau^2 = mu / rho, where its double root s = 0
    glances."""
    half = stack.halfspace
    mu = decompose_harmonic(half.stiffness).mu
    return np.asarray(eta) / np.linalg.norm(eta), -float(np.sqrt(mu / half.density))


class TestStackedLaws:
    """A trace builds every law whose sides do not glance and whose + side
    has a real mode as one stack at entry, and reads the mode delay of the
    source and of every (side, s) those laws send waves to once, off the
    side's classification.  Each law and delay is bit for bit what it is
    built alone, and the tree is, byte for byte, the tree whose laws are
    each built alone on first use."""

    def cases(self, ti_stack, bench_stack, fast_stack):
        """(stack, eta, tau, number of laws the stack builds): every law, but
        the one above the half-space where that glances and the four of the
        fast layers, which no segment meets (with them, the stack would
        raise NoIncomingMode at the law between the fast layers)."""
        stack, eta, tau = bench_stack
        return ([(ti_stack, eta, tau, 6) for eta, tau in TI_STACK_FRAMES]
                + [(stack, eta, tau, 6), (stack, *glancing_frame(stack, eta), 5),
                   (*fast_stack, 2)])

    @staticmethod
    def assert_same_law(law, alone):
        assert list(law.sides) == list(alone.sides)
        assert (law.tags, law.modes) == (alone.tags, alone.modes)
        for name in ("mode_maps", "forms", "side_maps"):
            assert same_bits(getattr(law, name), getattr(alone, name))
        for tag in law.sides:
            directions = ("outgoing", "incoming") if tag == "+" else ("outgoing",)
            for direction in directions:
                mine = law.sides[tag].projectors(direction)
                theirs = alone.sides[tag].projectors(direction)
                assert list(mine.psi) == list(theirs.psi)
                assert all(same_bits(mine.psi[s], theirs.psi[s]) for s in mine.psi)
                assert same_bits(mine.pi_c, theirs.pi_c) and mine.dim_ec == theirs.dim_ec

    @pytest.mark.parametrize("budget", [1, 2, 64])
    def test_laws_match_laws_built_alone(self, ti_stack, bench_stack, fast_stack, monkeypatch,
                                         budget):
        stacked_laws, shared_delay = layered._scatter_operators, layered.mode_delay
        law_stacks, delays = [], []

        def record_laws(laws):
            law_stacks.append(list(zip(laws, stacked_laws(laws))))
            return [law for _, law in law_stacks[-1]]

        def record_delay(a, cls, s):
            delays.append(((a, cls, s), shared_delay(a, cls, s)))
            return delays[-1][1]

        def alone_on_first_use(laws):
            if len(laws) > 1:
                raise NonEllipticOperator("forced law stack failure")
            return stacked_laws(laws)

        for stack, eta, tau, n_laws in self.cases(ti_stack, bench_stack, fast_stack):
            law_stacks.clear()
            delays.clear()
            with monkeypatch.context() as mp:
                mp.setattr(layered, "_scatter_operators", record_laws)
                mp.setattr(layered, "mode_delay", record_delay)
                tree = trace_plane_wave(stack, eta, tau, max_events=budget)
            with monkeypatch.context() as mp:
                mp.setattr(layered, "_scatter_operators", alone_on_first_use)
                alone = trace_plane_wave(stack, eta, tau, max_events=budget)
            assert tree_digest(tree) == tree_digest(alone)
            for e, f in zip(tree.events, alone.events):
                assert np.array_equal(e.amplitude, f.amplitude)

            # one stack of laws, none built on first use; the law above a
            # glancing half-space is left out of it
            (laws,) = law_stacks
            keys = {_layer_direction(stack, sides[0]) for sides, _ in laws}
            assert not any(sd.classification.glancing for sides, _ in laws for sd in sides)
            assert len(keys) == len(laws) == n_laws
            for sides, law in laws:
                fresh = [BoundarySide(sd.material, sd.frame) for sd in sides]
                built_alone = (free_surface_operator(*fresh) if len(fresh) == 1
                               else interface_operator(*fresh))
                self.assert_same_law(law, built_alone)

            # one delay per (side, s), which every crossing time then reads
            assert len(delays) > 1
            assert len({(id(a), s) for (a, _, s), _ in delays}) == len(delays)
            for (a, cls, s), delay in delays:
                assert delay == mode_delay(a, cls, s)

    def test_glancing_law_still_glances(self, bench_stack, monkeypatch):
        # At the half-space's shear transition the law above it is built on
        # first use, fails there, and ends its segments as glancing leaves.
        stack, eta, _ = bench_stack
        tree = trace_plane_wave(stack, *glancing_frame(stack, eta), max_events=64)
        glancing = {(e.layer, e.direction) for e in tree.events if e.status == "glancing"}
        assert glancing == {(len(stack.layers) - 1, "down")}
        assert {e.note for e in tree.events if e.status == "glancing"} == \
            {"spectrum has a glancing real eigenvalue"}
        assert leaf_flux(tree) == pytest.approx(tree.source_flux, rel=1e-9)


class TestEventRecords:
    """A trace builds each event in one step, not through the dataclass
    __init__; the events are still ordinary frozen RayEvents."""

    def test_events_are_ray_events(self, bench_stack):
        names = [f.name for f in dataclasses.fields(RayEvent)]
        tree = trace_plane_wave(*bench_stack, max_events=64)
        assert {e.status for e in tree.events} >= {"scattered", "floored", "truncated"}
        for e in tree.events:
            assert type(e) is RayEvent
            assert list(vars(e)) == names       # set in field order
            built = RayEvent(**{name: getattr(e, name) for name in names})
            assert built == e and repr(built) == repr(e)

    def test_events_are_frozen(self, bench_stack):
        tree = trace_plane_wave(*bench_stack, max_events=8)
        e = tree.events[1]
        with pytest.raises(dataclasses.FrozenInstanceError):
            e.status = "floored"
        with pytest.raises(dataclasses.FrozenInstanceError):
            e.amplitude = None
        changed = dataclasses.replace(e, status="floored", note="changed")
        assert (changed.status, changed.note) == ("floored", "changed")
        assert (changed.uid, changed.parent, changed.amplitude) == (e.uid, e.parent, e.amplitude)
        assert e.status != "floored" and e.note != "changed"


class TestIncomingFactorizations:
    """A law reads z_in as z_out^H, so a trace factorizes incoming roots on
    its source's side alone."""

    @pytest.mark.parametrize("source_layer", [0, 1])
    def test_only_the_source_side(self, bench_stack, monkeypatch, source_layer):
        built, settle = [], BoundarySide._settle

        def recording(side, m, poly):
            built.append(side)
            settle(side, m, poly)

        monkeypatch.setattr(BoundarySide, "_settle", recording)
        stack, eta, tau = bench_stack
        tree = trace_plane_wave(stack, eta, tau, source_layer=source_layer, max_events=64)
        assert tree.events[0].note == "source"
        incoming = [side for side in built if ("factorization", "incoming") in side._built]
        assert len(incoming) == 1
        (src,) = incoming
        assert src.material is stack.material(source_layer) and src.frame.nu[2] > 0
        # every law of the stack read its + side's z_in
        assert sum(("z", "incoming") in side._built for side in built) == 2 * len(stack.layers)


def stack_laws(stack, eta, tau) -> list:
    """Every law of a stack at (eta, tau) that builds, each built alone."""
    eta = np.array([eta[0], eta[1], 0.0])
    laws = []
    for layer in range(len(stack.layers)):
        for nu in (-NU, NU):        # met going up, then going down
            fr = BoundaryFrame(nu, eta, tau)
            plus = BoundarySide(stack.material(layer), fr)
            try:
                if nu[2] < 0 and layer == 0:
                    laws.append(free_surface_operator(plus))
                else:
                    below = layer + (1 if nu[2] > 0 else -1)
                    laws.append(interface_operator(
                        plus, BoundarySide(stack.material(below), fr.flipped())))
            except NumericalDomainError:
                continue
    return laws


class TestMergedApply:
    """A law scatters a trace on all its sides by one kernel over its mode
    rows and one contraction over its side rows; every number is bit for bit
    what the products on each side's rows alone give."""

    @pytest.fixture(scope="class")
    def laws(self, ti_stack, bench_stack):
        stack, eta, tau = bench_stack
        laws = [law for frame_args in TI_STACK_FRAMES for law in stack_laws(ti_stack, *frame_args)]
        laws += stack_laws(stack, eta, tau)
        assert len(laws) == 4 * 6 and {len(law.sides) for law in laws} == {1, 2}
        return laws

    def test_matches_per_side_products(self, laws):
        rng = np.random.default_rng(61)
        for law in laws:
            for _ in range(13):
                g = (rng.standard_normal(3) + 1j * rng.standard_normal(3)) \
                    * 10.0 ** rng.uniform(-4, 4)
                assert_per_side_products(law, g)


class TestPairContraction:
    """A generation scatters in one contraction over the (segment, outgoing
    mode) pairs of every law it meets; each child is bit for bit its mode's
    amplitude and flux in that law's `apply` on the parent's amplitude."""

    @staticmethod
    def recording_laws(monkeypatch, stack, alone=False) -> dict:
        """(layer, direction) -> the law a trace builds for it; with alone,
        the laws' stack raises, so that each is built alone on first use."""
        laws, stacked = {}, layered._scatter_operators

        def record(law_sides):
            if alone and len(law_sides) > 1:
                raise NonEllipticOperator("forced law stack failure")
            built = stacked(law_sides)
            laws.update((_layer_direction(stack, sides[0]), law)
                        for sides, law in zip(law_sides, built))
            return built

        monkeypatch.setattr(layered, "_scatter_operators", record)
        return laws

    @staticmethod
    def assert_children_are_rows(tree, laws) -> int:
        """Check every scattered segment's children; their number."""
        children = defaultdict(dict)
        for e in tree.events[1:]:
            children[e.parent][e.layer, e.direction, e.s] = e
        checked = 0
        for seg in tree.events:
            mine = children.pop(seg.uid, {})
            if seg.status != "scattered":
                assert not mine
                continue
            scattered = laws[seg.layer, seg.direction].apply(TraceField(seg.amplitude, seg.s))
            target = {"+": (seg.layer, "up" if seg.direction == "down" else "down"),
                      "-": (seg.layer + (1 if seg.direction == "down" else -1), seg.direction)}
            for tag, side in scattered.sides.items():
                for s_out, amp in side.amplitudes.items():
                    child = mine.pop((*target[tag], -s_out), None)
                    if child is None:       # a mode of zero amplitude leaves no child
                        assert layered._column_norms(amp[:, None])[0] == 0
                        continue
                    assert np.array_equal(child.amplitude, amp)
                    assert np.array_equal(child.flux, side.fluxes[s_out])
                    checked += 1
            assert not mine
        return checked

    @pytest.mark.parametrize("seed", [3, 7])
    def test_workload_trees(self, monkeypatch, tmp_path, seed):
        wl = workloads.LayeredTrace(seed, str(tmp_path))
        wl.setup()
        assert set(wl.budgets) == {64, 512}
        for (eta, tau), budget in zip(wl.frames, wl.budgets):
            with monkeypatch.context() as mp:
                laws = self.recording_laws(mp, wl.stack)
                tree = trace_plane_wave(wl.stack, eta, tau, max_events=budget)
            assert self.assert_children_are_rows(tree, laws) >= budget

    def test_laws_built_alone(self, monkeypatch, tmp_path):
        wl = workloads.LayeredTrace(3, str(tmp_path))
        wl.setup()
        for (eta, tau), budget in list(zip(wl.frames, wl.budgets))[-3:]:
            with monkeypatch.context() as mp:
                laws = self.recording_laws(mp, wl.stack, alone=True)
                tree = trace_plane_wave(wl.stack, eta, tau, max_events=budget)
            assert self.assert_children_are_rows(tree, laws) >= budget

    def test_glancing_law(self, bench_stack, monkeypatch):
        stack, eta, _ = bench_stack
        laws = self.recording_laws(monkeypatch, stack)
        tree = trace_plane_wave(stack, *glancing_frame(stack, eta), max_events=64)
        glancing = {(e.layer, e.direction) for e in tree.events if e.status == "glancing"}
        assert glancing == {(len(stack.layers) - 1, "down")} and not glancing & set(laws)
        assert self.assert_children_are_rows(tree, laws) > 0
