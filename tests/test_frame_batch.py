"""classify_frames and ellipticity_margin solve frames as stacks; they must
give what a loop over the frames, one after another, gives: the same labels,
the same margins to the last bit, and the same first error.  A frame and its
antipode (nu, -eta, tau) share a label and a margin, which `classify --grid`
reads for the second half of an even grid."""
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from elaswave import cli, factorization
from elaswave.boundary import (
    _CHUNK,
    _sides,
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
    to_voigt,
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


def antipode(frame):
    return BoundaryFrame(frame.nu, 0.0 - frame.eta, frame.tau)


def z_out(materials, frame):
    """z_out of a boundary, or z+ + z- of an interface."""
    return sum(side.z() for side in _sides(materials, frame))


@st.composite
def antipodal_frames(draw):
    """A material or pair and frames with their tolerance: 1e-9 within 1e-10
    of a side's elliptic limit tau_L, where z is ill-conditioned, and 1e-12 at
    least 1e-6 from every side's tau_L."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    make = {"triclinic": random_triclinic, "rotated_ti": random_rotated_ti}
    mats = [make[draw(st.sampled_from(sorted(make)))](rng)
            for _ in range(2 if draw(st.booleans()) else 1)]
    frames = []
    for k in range(draw(st.integers(1, 6))):
        ang, mag = rng.uniform(0.0, 2.0 * np.pi), rng.uniform(0.3, 1.6)
        eta_hat = np.array([np.cos(ang), np.sin(ang), 0.0])
        limits = [tau_limit(m, NU, eta_hat) for m in mats]
        if k < 2:
            t, tol = limits[k % len(limits)] * (1.0 + rng.choice([-1e-10, 1e-10])), 1e-9
        else:
            t, tol = rng.uniform(0.2, 3.0), 1e-12
            if min(abs(t / lim - 1.0) for lim in limits) < 1e-6:
                continue
        frames.append((BoundaryFrame(NU, mag * eta_hat, -mag * t), tol))
    return mats[0] if len(mats) == 1 else tuple(mats), frames


class TestAntipodalReciprocity:
    """A(nu, -eta; s) = A(nu, eta; -s), so z_out(-eta) = z_out(eta)^T on every
    side (the - side's frame flips the same way): the label and the margin of
    (nu, -eta, tau) are those of (nu, eta, tau)."""

    @given(antipodal_frames())
    def test_label_impedance_and_margin(self, case):
        materials, frames = case
        for frame, tol in frames:
            back = antipode(frame)
            label = classify(materials, frame).label
            assert classify(materials, back).label == label
            [(_, _, margin), (_, _, margin_back)] = classify_frames(materials, [frame, back])
            if margin is None:
                assert margin_back is None
            else:
                assert abs(margin_back - margin) <= tol * margin
            if label == "glancing":
                continue
            z, error = outcome(lambda: z_out(materials, frame))
            z_back, error_back = outcome(lambda: z_out(materials, back))
            assert (error is None) == (error_back is None)
            if error is None:
                assert np.linalg.norm(z_back - z.T) <= tol * np.linalg.norm(z)

    def test_off_hyperbolic_not_the_adjoint(self, iso):
        # -z(eta)^H, a relation of the real roots alone, misses by O(1) where
        # z has evanescent roots; the transpose holds in every region
        for tau in (-0.5, -1.5, -2.5):
            fr = BoundaryFrame(NU, np.array([0.6, 0.8, 0.0]), tau)
            z, z_back = z_out(iso, fr), z_out(iso, antipode(fr))
            assert np.linalg.norm(z_back - z.T) <= 1e-13 * np.linalg.norm(z)
            if classify(iso, fr).label != "hyperbolic":
                assert np.linalg.norm(z_back + z.conj().T) > 0.1 * np.linalg.norm(z)


class TestCliGrid:
    @pytest.fixture()
    def ortho_file(self, tmp_path):
        path = tmp_path / "ortho.json"
        path.write_text(json.dumps({"name": "ortho", "density": 1.1, "stiffness": {
            "type": "voigt", "matrix": [[4.2, 1.9, 1.7, 0, 0, 0], [1.9, 3.9, 1.8, 0, 0, 0],
                                        [1.7, 1.8, 3.6, 0, 0, 0], [0, 0, 0, 1.1, 0, 0],
                                        [0, 0, 0, 0, 1.2, 0], [0, 0, 0, 0, 0, 1.25]]}}))
        return str(path)

    @pytest.fixture()
    def triclinic_file(self, tmp_path):
        path = tmp_path / "triclinic.json"
        mat = random_triclinic(np.random.default_rng(29))
        path.write_text(json.dumps({"density": mat.density, "stiffness": {
            "type": "voigt", "matrix": to_voigt(mat.stiffness).tolist()}}))
        return str(path)

    def grid(self, capsys, *argv):
        code = cli.run(["classify", *argv])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @staticmethod
    def cli_frames(eta, tau, n):
        """The CLI's n azimuths at radius |eta|, from angle 0."""
        radius = np.hypot(*eta)
        return [BoundaryFrame(NU, radius * np.array([np.cos(ang), np.sin(ang), 0.0]), tau)
                for ang in (2.0 * np.pi * k / n for k in range(n))]

    @staticmethod
    def csv_rows(frames, rows):
        """CSV fields of classify --grid for frames and their (region, margin)."""
        return [[cli._fmt(fr.eta[0]), cli._fmt(fr.eta[1]), cli._fmt(fr.tau), region.label,
                 cli._fmt(0.0 if margin is None else margin)]
                for fr, (region, margin) in zip(frames, rows)]

    def sides_argv(self, files, pair):
        if pair:
            return ["--material-plus", files[0], "--material-minus", files[1]]
        return ["--material", files[0]]

    @pytest.mark.parametrize("pair", [False, True], ids=["boundary", "pair"])
    @pytest.mark.parametrize("n", [2, 8, 10])
    def test_even_grid_solves_the_first_half(self, capsys, triclinic_file, ortho_file,
                                             pair, n):
        files, tau = (triclinic_file, ortho_file), -0.6
        materials = tuple(map(load_material, files)) if pair else load_material(files[0])
        code, out, err = self.grid(capsys, *self.sides_argv(files, pair), "--eta", "1", "0",
                                   "--tau", "-0.6", "--grid", str(n))
        assert (code, err) == (0, "")
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert len(rows) == n
        half = self.cli_frames((1.0, 0.0), tau, n)[:n // 2]
        # the first half is the per-frame loop's, bit for bit
        assert rows[:n // 2] == self.csv_rows(half, classify_with_margin_per_frame(materials,
                                                                                   half))
        # row k + n/2 is the antipode (nu, 0.0 - eta_k, tau) with row k's label and margin
        for row, fr, back in zip(rows[n // 2:], half, rows[:n // 2]):
            assert row == [cli._fmt(0.0 - fr.eta[0]), cli._fmt(0.0 - fr.eta[1]), *back[2:]]
        assert rows[n // 2][:2] == [cli._fmt(-1.0), "0"]     # angle pi: eta_y is 0, not -0
        if n > 2:       # the grid crosses the boundary of the elliptic region
            assert {row[3] for row in rows} == {"elliptic", "mixed"}

    @pytest.mark.parametrize("n", [1, 5, 7])
    def test_odd_grid_solves_every_azimuth(self, capsys, triclinic_file, ortho_file, n):
        files = (triclinic_file, ortho_file)
        materials = tuple(map(load_material, files))
        code, out, _ = self.grid(capsys, *self.sides_argv(files, True), "--eta", "0.6", "0.8",
                                 "--tau", "-1.3", "--grid", str(n))
        frames = self.cli_frames((0.6, 0.8), -1.3, n)
        want = self.csv_rows(frames, classify_with_margin_per_frame(materials, frames))
        assert code == 0
        assert out == "\n".join(["eta_x,eta_y,tau,label,margin", *map(",".join, want)]) + "\n"

    def test_zero_radius_antipodes_print_no_negative_zero(self, capsys, ortho_file):
        _, out, _ = self.grid(capsys, "--material", ortho_file, "--eta", "0", "0",
                              "--tau", "-1", "--grid", "6")
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert [row[:2] for row in rows[3:]] == [["0", "0"]] * 3

    @pytest.mark.parametrize("n", [5, 6])
    def test_zero_radius_grid_prints_no_negative_zero(self, capsys, ortho_file, n):
        # 0 times a negative cosine or sine is -0 in the solved rows of an odd
        # and an even grid; the grid's eta + 0.0 makes it 0
        code, out, _ = self.grid(capsys, "--material", ortho_file, "--eta", "0", "0",
                                 "--tau", "-1", "--grid", str(n))
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert code == 0
        assert [row[:2] for row in rows] == [["0", "0"]] * n

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

    def test_failure_in_the_first_half_of_an_even_grid(self, capsys, monkeypatch,
                                                       triclinic_file, ortho_file):
        # the - side's factorization of azimuth 3 of 8, the last one solved, fails
        files = (triclinic_file, ortho_file)
        materials = tuple(map(load_material, files))
        frames = self.cli_frames((1.0, 0.0), -1.0, 8)
        bad = classify_spectrum(boundary_polynomial(materials[1], frames[3].flipped())).schur[0]
        target = factorization._target

        def failing(cls, d, tau):
            if np.array_equal(cls.schur[0], bad):
                raise SigmaCardinality("injected - side failure")
            return target(cls, d, tau)

        monkeypatch.setattr(factorization, "_target", failing)
        _, want = outcome(lambda: classify_with_margin_per_frame(materials, frames))
        assert want == (SigmaCardinality, "injected - side failure")
        code, out, err = self.grid(capsys, *self.sides_argv(files, True), "--eta", "1", "0",
                                   "--tau", "-1", "--grid", "8")
        assert (code, out) == (3, "")
        assert json.loads(err) == {"error": want[0].__name__, "message": want[1]}
