"""classify_frames and ellipticity_margin solve frames as stacks; they must
give what a loop over the frames, one after another, gives: the same labels,
the same margins to the last bit, and the same first error."""
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from elaswave import cli, factorization
from elaswave.boundary import (
    _CHUNK,
    classify,
    classify_frames,
    ellipticity_margin,
    tau_limit,
)
from elaswave.errors import (
    CoefficientOverflow,
    ElasticError,
    NumericalDomainError,
    SigmaCardinality,
    SolvencyResidual,
)
from elaswave.factorization import (
    BoundaryFrame,
    boundary_polynomial,
    classify_spectrum,
    stroh,
)
from elaswave.materials import (
    Material,
    check_strong_convexity,
    load_material,
    make_isotropic,
    make_transversely_isotropic,
    rotate_stiffness,
)

from conftest import NU, random_triclinic
from oracles import classify_with_margin_per_frame


def random_rotated_ti(rng):
    """Strongly convex transversely isotropic material, axis rotated at random."""
    while True:
        m = make_transversely_isotropic(rng.uniform(0.8, 1.2), rng.uniform(0.8, 1.2),
                                        rng.uniform(-0.3, 0.3), rng.uniform(0.3, 0.6),
                                        rng.uniform(0.5, 1.5), NU, rng.uniform(0.9, 1.1))
        if check_strong_convexity(m.stiffness)[0]:
            break
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return Material(rotate_stiffness(m.stiffness, q), m.density, "rotated_ti")


def outcome(run):
    """(rows, None) or (None, (error type, message))."""
    try:
        return run(), None
    except ElasticError as exc:
        return None, (type(exc), str(exc))


def assert_same_as_per_frame(materials, frames):
    want = outcome(lambda: classify_with_margin_per_frame(materials, frames))
    got = outcome(lambda: [(region, margin) for _, region, margin
                           in classify_frames(materials, frames)])
    assert got[1] == want[1]
    if want[0] is not None:
        assert len(got[0]) == len(want[0])
        for (region, margin), (region_want, margin_want) in zip(got[0], want[0]):
            assert region == region_want
            assert margin == margin_want        # bit for bit, or both None
    return want


@st.composite
def grids(draw):
    """A material or pair and frames across the three regions, sweeping
    both eta and tau, some within 1e-10 of the elliptic limit tau_L."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    make = {"triclinic": random_triclinic, "rotated_ti": random_rotated_ti}
    first = make[draw(st.sampled_from(sorted(make)))](rng)
    if draw(st.booleans()):
        materials = (first, make[draw(st.sampled_from(sorted(make)))](rng))
    else:
        materials = first
    frames = []
    for k in range(draw(st.integers(1, 10))):
        ang, mag = rng.uniform(0.0, 2.0 * np.pi), rng.uniform(0.3, 1.6)
        eta_hat = np.array([np.cos(ang), np.sin(ang), 0.0])
        if k < 2:        # on either side of tau_L, 1e-10 away
            t = tau_limit(first, NU, eta_hat) * (1.0 + rng.choice([-1e-10, 1e-10]))
        else:
            t = rng.uniform(0.2, 3.0)
        frames.append(BoundaryFrame(NU, mag * eta_hat, -mag * t))
    return materials, frames


class TestSameAsPerFrame:
    @given(grids())
    def test_random_grids(self, grid):
        assert_same_as_per_frame(*grid)

    def test_goldens_regions(self):
        # the grids of the benchmark's classify commands, one label each
        iso, hard = make_isotropic(2.0, 1.0, 1.0), make_isotropic(4.0, 3.0, 3.0)
        ang = 2.0 * np.pi * np.arange(16) / 16
        etas = np.column_stack([np.cos(ang), np.sin(ang), np.zeros(16)])
        for materials, tau, label in ((iso, -1.5, "mixed"), ((iso, hard), -2.5, "hyperbolic"),
                                      (iso, -0.5, "elliptic"), (iso, -1.0, "glancing")):
            rows, _ = assert_same_as_per_frame(
                materials, [BoundaryFrame(NU, eta, tau) for eta in etas])
            assert {region.label for region, _ in rows} == {label}

    def test_chunks(self, iso, hard):
        # more frames than one stack holds
        taus = np.linspace(-3.0, -0.2, _CHUNK + 7)
        assert_same_as_per_frame((iso, hard), [BoundaryFrame(NU, np.array([1.0, 0.0, 0.0]), t)
                                               for t in taus])

    def test_single_frame_entry_points(self, rotated_ti, hard):
        fr = BoundaryFrame(NU, np.array([0.6, 0.3, 0.0]), -1.1)
        for materials in (rotated_ti, (rotated_ti, hard)):
            [(_, region, margin)] = classify_frames(materials, [fr])
            assert (region, margin) == classify_with_margin_per_frame(materials, [fr])[0]
            assert region == classify(materials, fr)
        frames = [BoundaryFrame(NU, np.array([0.6, 0.3, 0.0]), t) for t in (-0.4, -1.1, -2.9)]
        margin, rows = ellipticity_margin(rotated_ti, frames)
        want = [(f, r.label, m) for f, (r, m)
                in zip(frames, classify_with_margin_per_frame(rotated_ti, frames))
                if m is not None]
        assert rows == want and margin == min(m for *_, m in want)
        assert ellipticity_margin(rotated_ti, frames[:1]) == (np.inf, [])


ETA = np.array([1.0, 0.0, 0.0])


class TestFirstError:
    """A failure at a later step of an earlier frame comes first, as in the
    loop, although the stacks meet the later frame's failure first."""

    TAU_BAD = -1.2345      # a frame the injected factorization failure picks

    @pytest.fixture()
    def failing_factorization(self, monkeypatch):
        target = factorization._target

        def failing(cls, direction, tau):
            if tau == self.TAU_BAD:
                raise SigmaCardinality("injected failure")
            return target(cls, direction, tau)

        monkeypatch.setattr(factorization, "_target", failing)

    @pytest.mark.parametrize("pair", [False, True])
    def test_factorization_before_overflow(self, iso, hard, failing_factorization, pair):
        materials = (iso, hard) if pair else iso
        taus = (-2.5, -1.5, self.TAU_BAD, -2.0, -1e80)
        _, error = assert_same_as_per_frame(materials, [BoundaryFrame(NU, ETA, t) for t in taus])
        assert error == (SigmaCardinality, "injected failure")

    @pytest.mark.parametrize("pair", [False, True])
    def test_overflow_before_factorization(self, iso, hard, failing_factorization, pair):
        materials = (iso, hard) if pair else iso
        taus = (-2.5, -1e80, self.TAU_BAD, -0.5)
        _, error = assert_same_as_per_frame(materials, [BoundaryFrame(NU, ETA, t) for t in taus])
        assert error[0] is CoefficientOverflow

    def test_plus_side_first(self, iso, hard):
        # both sides overflow, with sizes of their own; the + side is built first
        fr = BoundaryFrame(NU, ETA, -1e80)
        _, error = assert_same_as_per_frame((hard, iso), [fr])
        assert error == outcome(lambda: boundary_polynomial(hard, fr))[1]

    def test_classification_failure(self, iso, hard, monkeypatch):
        # the - side's Schur form of the third frame fails
        frames = [BoundaryFrame(NU, ETA, t) for t in (-2.5, -0.5, -1.5, -1e80)]
        bad = stroh(boundary_polynomial(hard, frames[2].flipped()))
        schur = factorization._schur

        def failing(s6):
            if np.array_equal(s6, bad):
                raise NumericalDomainError("injected Schur failure")
            return schur(s6)

        monkeypatch.setattr(factorization, "_schur", failing)
        _, error = assert_same_as_per_frame((iso, hard), frames)
        assert error == (NumericalDomainError, "injected Schur failure")

    def test_plus_side_roots_before_minus_side_target(self, iso, hard, monkeypatch):
        # at one frame of a pair the + side's root check fails, and so does the
        # - side's target; a loop factorizes the + side first, to its checks
        fr = BoundaryFrame(NU, ETA, -2.5)
        bad = classify_spectrum(boundary_polynomial(hard, fr.flipped())).schur[0]
        target, validate = factorization._target, factorization._validate

        def failing_target(cls, direction, tau):
            if np.array_equal(cls.schur[0], bad):
                raise SigmaCardinality("injected - side failure")
            return target(cls, direction, tau)

        def failing_validate(facts, *stacks):
            validate(facts, *stacks)
            if any(np.array_equal(f.poly.frame.nu, NU) for f in facts):
                raise SolvencyResidual("injected + side failure")

        monkeypatch.setattr(factorization, "_target", failing_target)
        monkeypatch.setattr(factorization, "_validate", failing_validate)
        _, error = assert_same_as_per_frame((iso, hard), [fr])
        assert error == (SolvencyResidual, "injected + side failure")


class TestCliGrid:
    @pytest.fixture()
    def ortho_file(self, tmp_path):
        path = tmp_path / "ortho.json"
        path.write_text(json.dumps({"name": "ortho", "density": 1.1, "stiffness": {
            "type": "voigt", "matrix": [[4.2, 1.9, 1.7, 0, 0, 0], [1.9, 3.9, 1.8, 0, 0, 0],
                                        [1.7, 1.8, 3.6, 0, 0, 0], [0, 0, 0, 1.1, 0, 0],
                                        [0, 0, 0, 0, 1.2, 0], [0, 0, 0, 0, 0, 1.25]]}}))
        return str(path)

    def grid(self, capsys, *argv):
        code = cli.run(["classify", *argv])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_radius_is_eta_magnitude(self, capsys, ortho_file):
        code, out, _ = self.grid(capsys, "--material", ortho_file, "--eta", "2", "0",
                                 "--tau", "-2.6", "--grid", "4")
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert len(rows) == 4
        mat = load_material(ortho_file)
        for k, (ex, ey, tau, label, _) in enumerate(rows):
            eta = np.array([float(ex), float(ey), 0.0])
            assert np.hypot(*eta[:2]) == pytest.approx(2.0, rel=1e-15)
            assert np.arctan2(eta[1], eta[0]) % (2 * np.pi) == pytest.approx(np.pi * k / 2)
            assert label == classify(mat, BoundaryFrame(NU, eta, float(tau))).label

    def test_unit_eta_unchanged(self, capsys, ortho_file):
        # |eta| = 1 sweeps the unit circle, row for row as before
        _, out, _ = self.grid(capsys, "--material", ortho_file, "--eta", "0", "1",
                              "--tau", "-1.9", "--grid", "3")
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        for k, row in enumerate(rows):
            ang = 2.0 * np.pi * k / 3
            assert (row[0], row[1]) == (format(np.cos(ang), ".17g"), format(np.sin(ang), ".17g"))

    def test_error_and_exit_code_of_first_failing_frame(self, capsys, monkeypatch, ortho_file):
        # the factorization of the third of eight azimuths fails
        mat = load_material(ortho_file)
        frames = [BoundaryFrame(NU, np.array([np.cos(a), np.sin(a), 0.0]), -2.6)
                  for a in 2.0 * np.pi * np.arange(8) / 8]
        bad = classify_spectrum(boundary_polynomial(mat, frames[2])).schur[0]
        target = factorization._target

        def failing(cls, d, tau):
            if np.array_equal(cls.schur[0], bad):
                raise SigmaCardinality("injected failure")
            return target(cls, d, tau)

        monkeypatch.setattr(factorization, "_target", failing)
        _, want = outcome(lambda: classify_with_margin_per_frame(mat, frames))
        assert want == (SigmaCardinality, "injected failure")
        code, out, err = self.grid(capsys, "--material", ortho_file, "--eta", "1", "0",
                                   "--tau", "-2.6", "--grid", "8")
        assert (code, out) == (3, "")
        assert json.loads(err) == {"error": want[0].__name__, "message": want[1]}
