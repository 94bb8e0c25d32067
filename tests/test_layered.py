import json
from collections import Counter, defaultdict

import numpy as np
import pytest

from elaswave import boundary, factorization, layered, scatter
from elaswave.errors import (
    GlancingSpectrum,
    NonEllipticOperator,
    StackFileError,
    ValidationError,
)
from elaswave.factorization import BoundaryFrame, boundary_polynomial, kernel_basis
from elaswave.layered import (
    LayerStack,
    arrivals_rows,
    group_delay,
    leaf_flux,
    load_stack,
    trace_plane_wave,
)
from elaswave.materials import make_isotropic, make_transversely_isotropic
from elaswave.scatter import TraceField, reflect_free_surface, transmit_interface

from conftest import AXIS, NU

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


# Hyperbolic everywhere; a mixed half-space; mixed layers over an elliptic
# half-space (evanescent content at every boundary).
TI_STACK_FRAMES = (((0.0, 0.0), -1.0), ((0.3, 0.2), -1.1), ((0.7, 0.0), -1.0))


class TestLayerStack:
    def test_rejects_nonpositive_thickness(self, soft, rigid):
        with pytest.raises(StackFileError):
            LayerStack(((soft, 0.0),), rigid)

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
                    {"source_direction": "sideways"}):
            kwargs = {"eta": (0.0, 0.0), **bad}
            with pytest.raises(ValidationError):
                trace_plane_wave(stack, tau=-1.0, **kwargs)


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
                incoming = TraceField(seg.amplitude, frame, seg.s, "+", seg.flux)
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
        builds = Counter()

        def recording(builder):
            def build(plus, *rest):
                builds[_layer_direction(ti_stack, plus)] += 1
                return builder(plus, *rest)
            return build

        for name in ("free_surface_operator", "interface_operator"):
            monkeypatch.setattr(layered, name, recording(getattr(layered, name)))
        for eta, tau in TI_STACK_FRAMES:
            builds.clear()
            trace_plane_wave(ti_stack, eta, tau, max_events=64)
            assert builds and max(builds.values()) == 1
            assert sum(builds.values()) <= 2 * len(ti_stack.layers)

    def test_each_polynomial_classified_once(self, ti_stack, monkeypatch):
        # The laws met going down from layer L and up from layer L+1 share
        # their two sides; the source mode and crossing times read them too.
        # At eta = 0 a layer's up and down polynomials have equal
        # coefficients, so the key also holds the frame's conormal.
        seen = Counter()
        classify_spectrum = factorization.classify_spectrum

        def counting(a, *args, **kwargs):
            seen[(a.a0.tobytes(), a.a1.tobytes(), a.a2.tobytes(),
                  a.frame.nu.tobytes())] += 1
            return classify_spectrum(a, *args, **kwargs)

        for mod in (factorization, boundary, scatter):
            if hasattr(mod, "classify_spectrum"):
                monkeypatch.setattr(mod, "classify_spectrum", counting)
        for eta, tau in TI_STACK_FRAMES:
            seen.clear()
            trace_plane_wave(ti_stack, eta, tau, max_events=64)
            assert seen and max(seen.values()) == 1

    def test_failed_build_is_kept(self, ti_stack, monkeypatch):
        key = (1, "down")
        builds = []
        interface_operator = layered.interface_operator

        def failing(plus, minus):
            if _layer_direction(ti_stack, plus) == key:
                builds.append(key)
                raise NonEllipticOperator("forced failure")
            return interface_operator(plus, minus)

        monkeypatch.setattr(layered, "interface_operator", failing)
        tree = trace_plane_wave(ti_stack, (0.0, 0.0), -1.0, max_events=64)
        assert builds == [key]
        hits = [e for e in tree.events if (e.layer, e.direction) == key
                and e.status not in ("floored", "truncated")]
        assert len(hits) > 1
        assert all(e.status == "glancing" and e.note == "forced failure"
                   for e in hits)
        assert leaf_flux(tree) == pytest.approx(tree.source_flux, rel=1e-9)
