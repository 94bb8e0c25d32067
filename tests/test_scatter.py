import numpy as np
import pytest

from elaswave import factorization
from elaswave.boundary import BoundarySide
from elaswave.errors import InvalidInput, NoIncomingMode, ValidationError
from elaswave.factorization import BoundaryFrame, boundary_polynomial, kernel_basis
from elaswave.materials import make_isotropic
from elaswave.scatter import (
    TraceField,
    _scatter_operators,
    energy_balance,
    free_surface_operator,
    incoming_mode,
    interface_operator,
    reflect_free_surface,
    side_incoming_mode,
    transmit_interface,
)

from conftest import NU, assert_per_side_products, sample_frames

ETA = np.array([1.0, 0.0, 0.0])


def frame(tau, eta=ETA):
    return BoundaryFrame(NU, eta, tau)


class TestIncomingMode:
    def test_pure_mode_in_kernel(self, iso):
        fr = frame(-2.5)
        inc = incoming_mode(iso, fr, 0)
        a = boundary_polynomial(iso, fr)
        kern = kernel_basis(a, inc.s_in)
        proj = kern @ kern.conj().T @ inc.g
        assert np.linalg.norm(proj - inc.g) < 1e-9 * np.linalg.norm(inc.g)

    def test_unit_flux(self, iso):
        fr = frame(-1.5)
        inc = incoming_mode(iso, fr, 0)
        a = boundary_polynomial(iso, fr)
        flux = fr.tau * 0.5 * np.real(np.vdot(inc.g, a.derivative(inc.s_in) @ inc.g))
        assert flux == pytest.approx(1.0, rel=1e-12)

    def test_elliptic_raises(self, iso):
        with pytest.raises(NoIncomingMode):
            incoming_mode(iso, frame(-0.5), 0)

    def test_mode_is_an_index(self, iso):
        # Two incoming modes here, s ~ 0.5 and 2.0: an index past the last
        # one is not read as a slowness, and a negative one or a bool is no
        # index.
        fr = frame(np.sqrt(5.0))
        assert incoming_mode(iso, fr, 1).s_in == 1.999999999999998
        with pytest.raises(NoIncomingMode):
            incoming_mode(iso, fr, 2)
        for bad in (-1, 2.0, True):
            with pytest.raises(InvalidInput):
                incoming_mode(iso, fr, bad)


class TestFreeSurface:
    def test_sh_total_reflection(self, iso):
        # SH decouples: reflected SH amplitude equals g, no conversion
        fr = frame(-1.5)
        a = boundary_polynomial(iso, fr)
        zeta = np.array([0.0, 1.0, 0.0], dtype=complex)
        inc = TraceField(zeta, incoming_mode(iso, fr, 0).s_in)
        r = reflect_free_surface(iso, fr, inc)
        assert np.allclose(r.sides["+"].trace, zeta, atol=1e-10)

    def test_energy_balance(self, iso, ti):
        rng = np.random.default_rng(43)
        for mat in (iso, ti):
            buckets = sample_frames(mat, rng, 3, regions=("hyperbolic", "mixed"))
            for frames in buckets.values():
                for fr in frames:
                    for k in range(2):
                        try:
                            inc = incoming_mode(mat, fr, k)
                        except NoIncomingMode:
                            continue
                        r = reflect_free_surface(mat, fr, inc)
                        assert r.balance_residual < 1e-8
                        assert r.incident_flux == pytest.approx(1.0, rel=1e-10)

    def test_mixed_p_incidence_evanescent(self, iso):
        # in the mixed region SV incidence excites an evanescent P component
        fr = frame(-1.8)
        inc = incoming_mode(iso, fr, 0)
        r = reflect_free_surface(iso, fr, inc)
        assert np.linalg.norm(r.sides["+"].evanescent) > 1e-6

    def test_elliptic_frame_raises(self, iso):
        fr = frame(-0.5)
        g = TraceField(np.array([1.0, 0, 0], dtype=complex), 0.0)
        with pytest.raises(NoIncomingMode):
            reflect_free_surface(iso, fr, g)

    def test_linearity(self, iso):
        fr = frame(-2.5)
        inc0 = incoming_mode(iso, fr, 0)
        g1 = TraceField(inc0.g, inc0.s_in)
        g2 = TraceField(2.5j * inc0.g, inc0.s_in)
        f1 = reflect_free_surface(iso, fr, g1).sides["+"].trace
        f2 = reflect_free_surface(iso, fr, g2).sides["+"].trace
        assert np.allclose(f2, 2.5j * f1, atol=1e-10)


class TestInterface:
    def test_sides_must_face_each_other(self, iso, hard):
        fr = frame(-2.5)
        plus = BoundarySide(iso, fr)
        for minus_frame in (fr, BoundaryFrame(-NU, ETA, -2.4)):
            with pytest.raises(ValidationError):
                interface_operator(plus, BoundarySide(hard, minus_frame))
        law = interface_operator(plus, BoundarySide(hard, fr.flipped()))
        assert law.frame is fr and law.sides["+"] is plus

    def test_fictitious_interface(self, iso):
        for tau in (-2.5, -1.4):
            fr = frame(tau)
            inc = incoming_mode(iso, fr, 0)
            r = transmit_interface(iso, iso, fr, inc)
            g = np.linalg.norm(inc.g)
            assert np.linalg.norm(r.sides["+"].trace) < 1e-10 * g
            assert np.linalg.norm(r.sides["-"].trace - inc.g) < 1e-10 * g

    def test_normal_sh_classical(self, iso):
        from oracles import sh_normal_reflection
        other = make_isotropic(3.0, 4.0, 2.0)
        fr = BoundaryFrame(NU, np.zeros(3), -1.0)
        inc = incoming_mode(iso, fr, 0)
        r = transmit_interface(iso, other, fr, inc)
        # reflected shear amplitude ratio (s_out = -s_in branch)
        refl = max(np.linalg.norm(v) for v in r.sides["+"].amplitudes.values())
        classical = sh_normal_reflection(1.0, 1.0, 4.0, 2.0)
        assert refl / np.linalg.norm(inc.g) == pytest.approx(classical,
                                                             abs=1e-10)

    def test_energy_balance_both_sides(self, iso, hard):
        rng = np.random.default_rng(47)
        buckets = sample_frames(iso, rng, 4, regions=("hyperbolic", "mixed"))
        for frames in buckets.values():
            for fr in frames:
                try:
                    inc = incoming_mode(iso, fr, 0)
                    r = transmit_interface(iso, hard, fr, inc)
                except NoIncomingMode:
                    continue
                assert r.balance_residual < 1e-8

    def test_frame_homogeneity(self, iso, hard):
        # use the non-degenerate pressure mode: the shear kernel is 2-D and
        # its orthonormal basis is not stable under frame rescaling
        fr1 = frame(-2.5)
        fr2 = BoundaryFrame(NU, 3.0 * ETA, -7.5)
        out = []
        for fr in (fr1, fr2):
            inc = incoming_mode(iso, fr, 1)
            r = transmit_interface(iso, hard, fr, inc)
            amps = np.concatenate([
                r.sides[t].amplitudes[s]
                for t in sorted(r.sides)
                for s in sorted(r.sides[t].amplitudes)])
            out.append(amps / np.linalg.norm(inc.g))
        assert np.allclose(np.abs(out[0]), np.abs(out[1]), atol=1e-9)


class TestApply:
    def test_matches_per_side_products(self, iso, ti, hard):
        # apply is, bit for bit, the products on each side's rows of the law.
        rng = np.random.default_rng(53)
        laws = []
        for tau in (-2.5, -1.8):     # hyperbolic, then evanescent P
            fr = frame(tau)
            laws.append(free_surface_operator(BoundarySide(iso, fr)))
            laws.append(interface_operator(BoundarySide(ti, fr),
                                           BoundarySide(hard, fr.flipped())))
        for law in laws:
            for g in (*np.eye(3), *(
                    (rng.standard_normal(3) + 1j * rng.standard_normal(3))
                    * 10.0 ** rng.uniform(-4, 4) for _ in range(13))):
                assert_per_side_products(law, g)
        assert any(np.linalg.norm(law.apply(TraceField(e, 0.0)).sides["+"].evanescent) > 0
                   for law in laws for e in np.eye(3))


class TestStackedLaws:
    def test_stack_matches_laws_alone(self, iso, ti, hard):
        # Laws at different frames and of both kinds, built as one stack, are
        # bit for bit the laws built alone on fresh sides.
        def sides(kind, fr):
            if kind == "free":
                return (BoundarySide(ti, fr),)
            return BoundarySide(iso, fr), BoundarySide(hard, fr.flipped())

        cases = [(kind, frame(tau, eta)) for tau, eta in ((-2.5, ETA), (-1.8, ETA),
                                                          (-2.2, np.array([0.6, 0.5, 0.0])))
                 for kind in ("free", "interface")]
        stacked = _scatter_operators([sides(kind, fr) for kind, fr in cases])
        for (kind, fr), law in zip(cases, stacked):
            alone = (free_surface_operator if kind == "free" else interface_operator)(
                *sides(kind, fr))
            assert list(law.sides) == list(alone.sides)
            assert (law.tags, law.modes) == (alone.tags, alone.modes)
            for name in ("mode_maps", "forms", "side_maps"):
                mine, theirs = getattr(law, name), getattr(alone, name)
                assert mine.dtype == theirs.dtype and mine.shape == theirs.shape
                assert mine.tobytes() == theirs.tobytes()

    def test_stack_raises_the_first_failure(self, iso, hard):
        # A stack meets each law's checks in the one-law order, stage by
        # stage: a wrong - side frame before an elliptic law.
        fr = frame(-2.5)
        elliptic = (BoundarySide(iso, frame(-0.5)), BoundarySide(hard, frame(-0.5).flipped()))
        wrong_frame = (BoundarySide(iso, fr), BoundarySide(hard, fr))
        with pytest.raises(NoIncomingMode, match="elliptic on both sides"):
            _scatter_operators([(BoundarySide(iso, fr),), elliptic])
        with pytest.raises(InvalidInput, match="flipped frame"):
            _scatter_operators([elliptic, wrong_frame])


class TestScatterGate:
    """A wrong object where a side, a trace or a scattering result is due is
    bad input (exit code 2) with a pinned message, not an AttributeError,
    ValueError, TypeError or NaN flux from inside."""

    @staticmethod
    def entry_points(iso):
        fr = frame(-2.5)
        side = BoundarySide(iso, fr)
        law, g = free_surface_operator(side), incoming_mode(iso, fr, 0).g
        not_vector = "g must be a vector of 3 numbers, got {}"
        return {
            "free_surface_operator": (lambda: free_surface_operator("x"),
                                      "side must be a BoundarySide, got str"),
            "interface_operator +": (lambda: interface_operator("x", side),
                                     "plus must be a BoundarySide, got str"),
            "interface_operator -": (lambda: interface_operator(side, "x"),
                                     "minus must be a BoundarySide, got str"),
            "side_incoming_mode": (lambda: side_incoming_mode("x"),
                                   "side must be a BoundarySide, got str"),
            "energy_balance": (lambda: energy_balance("x"), "r must be a ScatterResult, got str"),
            "apply": (lambda: law.apply("x"), "incoming must be a TraceField, got str"),
            "reflect_free_surface": (lambda: reflect_free_surface(iso, fr, "x"),
                                     "incoming must be a TraceField, got str"),
            "apply 2-vector": (lambda: law.apply(TraceField(g[:2], 0.0)),
                               not_vector.format("complex128 of shape (2,)")),
            "apply column": (lambda: law.apply(TraceField(g[:, None], 0.0)),
                             not_vector.format("complex128 of shape (3, 1)")),
            "apply str": (lambda: law.apply(TraceField("abc", 0.0)),
                          not_vector.format("<U3 of shape ()")),
            "apply NaN": (lambda: law.apply(TraceField(np.array([np.nan, 0.0, 0.0]), 0.0)),
                          "g must be finite"),
            "apply inf": (lambda: law.apply(TraceField(np.array([0.0, np.inf, 1j]), 0.0)),
                          "g must be finite"),
        }

    @pytest.mark.parametrize("name", [
        "free_surface_operator", "interface_operator +", "interface_operator -",
        "side_incoming_mode", "energy_balance", "apply", "reflect_free_surface",
        "apply 2-vector", "apply column", "apply str", "apply NaN", "apply inf"])
    def test_typed_error(self, iso, name):
        run, message = self.entry_points(iso)[name]
        with pytest.raises(InvalidInput) as info:
            run()
        assert str(info.value) == message
        assert info.value.exit_code == 2

    def test_list_trace(self, iso):
        # a list of 3 numbers is a trace, scattered as its array is
        fr = frame(-2.5)
        law, g = free_surface_operator(BoundarySide(iso, fr)), incoming_mode(iso, fr, 0).g
        mine, theirs = law.apply(TraceField(list(g), 0.0)), law.apply(TraceField(g, 0.0))
        assert mine.incident_flux == theirs.incident_flux
        assert mine.sides["+"].trace.tobytes() == theirs.sides["+"].trace.tobytes()
        assert mine.sides["+"].fluxes == theirs.sides["+"].fluxes


class TestEnergyReport:
    def test_report_structure(self, iso, hard):
        fr = frame(-1.6)
        inc = incoming_mode(iso, fr, 0)
        r = transmit_interface(iso, hard, fr, inc)
        rep = energy_balance(r)
        assert rep["balance_residual"] < 1e-8
        for tag in ("+", "-"):
            assert rep["sides"][tag]["evanescent_flux_ok"]

    def test_zero_incoming(self, iso):
        fr = frame(-2.5)
        inc0 = incoming_mode(iso, fr, 0)
        g = TraceField(np.zeros(3, dtype=complex), inc0.s_in)
        r = reflect_free_surface(iso, fr, g)
        assert all(abs(v) < 1e-30 for v in r.sides["+"].fluxes.values())


class TestOneSpectrumPerPolynomial:
    def test_stroh_once_per_side(self, iso, hard, monkeypatch):
        # Both directions of a side come from one Schur form.
        fr = frame(-2.5)
        inc = incoming_mode(iso, fr, 0)
        calls = []
        stroh = factorization._stroh     # what the spectra build, ungated
        monkeypatch.setattr(factorization, "_stroh",
                            lambda a: calls.append(a) or stroh(a))
        reflect_free_surface(iso, fr, inc)
        assert len(calls) == 1
        calls.clear()
        transmit_interface(iso, hard, fr, inc)
        assert len(calls) == 2
