"""The four benchmark workloads: seeded inputs, operations and output checks.

A workload is made from a seed and a work directory: the constructor
generates its inputs (parameters, frames, files) and `setup` builds the
elaswave objects the operations use (materials, stacks, loaded files).  Only
`setup` is the benchmark's set-up time; input generation is not timed.  The
workload then hands out rounds of operations.  Every round holds the same mix
of operation kinds, so a run made of whole rounds always measures the same mix.  Each operation is a callable
that calls into elaswave and returns its result, plus a check that judges the
result against an oracle or a structural law and returns the deviation it
measured.  Checks raise `CheckFailed` when a gate is not met.

All library calls go through module attributes (`fz.factorize`, not a name
imported from the module), so that the tracer in `tracer.py` sees them.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import tempfile
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from elaswave import boundary as bd
from elaswave import cli
from elaswave import factorization as fz
from elaswave import impedance as imp
from elaswave import layered as ly
from elaswave import materials as mt

NU = np.array([0.0, 0.0, 1.0])
GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

# Rayleigh speed of a Poisson solid (lambda = mu) in units of the shear speed.
C_R_POISSON = 0.9194016867619661


class CheckFailed(Exception):
    """An output did not pass its correctness gate."""


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], float]


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def _gate(ok: bool, msg: str) -> None:
    if not ok:
        raise CheckFailed(msg)


# --- seeded materials --------------------------------------------------------
# Each generator draws a material's parameters and returns a zero-argument
# recipe that builds the elaswave Material from them.

def _random_rotation(rng) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def _isotropic(rng):
    mu = rng.uniform(0.8, 1.2)
    lam, rho = mu * rng.uniform(0.6, 2.2), rng.uniform(0.8, 1.2)
    return lambda: mt.make_isotropic(lam, mu, rho, "iso")


def _weak_ti(rng):
    args = (rng.uniform(0.9, 1.1), rng.uniform(0.9, 1.1), rng.uniform(0.02, 0.08),
            rng.uniform(0.02, 0.08), rng.uniform(0.0, 0.04), NU, rng.uniform(0.9, 1.1),
            "weak_ti")
    return lambda: mt.make_transversely_isotropic(*args)


def _rotated_ti(rng):
    """Strongly anisotropic TI with a seeded oblique axis."""
    while True:
        args = (rng.uniform(0.8, 1.2), rng.uniform(0.8, 1.2), rng.uniform(-0.3, 0.3),
                rng.uniform(0.3, 0.6), rng.uniform(0.5, 1.5), NU, rng.uniform(0.9, 1.1),
                "rotated_ti")
        if mt.check_strong_convexity(mt.make_transversely_isotropic(*args).stiffness)[0]:
            break
    o = _random_rotation(rng)

    def build():
        m = mt.make_transversely_isotropic(*args)
        return mt.Material(mt.rotate_stiffness(m.stiffness, o), m.density, "rotated_ti")

    return build


_MANDEL_SCALE = np.array([1.0, 1.0, 1.0, np.sqrt(2.0), np.sqrt(2.0), np.sqrt(2.0)])


def _triclinic(rng):
    """Random symmetric positive definite Mandel matrix, as a Voigt material."""
    g = rng.standard_normal((6, 6))
    mandel = g @ g.T / 6.0 + 0.5 * np.eye(6)
    voigt = mandel / np.outer(_MANDEL_SCALE, _MANDEL_SCALE)
    rho = rng.uniform(0.8, 1.2)
    return lambda: mt.Material(mt.from_voigt(voigt), rho, "triclinic")


MATERIAL_CLASSES = (("isotropic", _isotropic), ("weak_ti", _weak_ti),
                    ("rotated_ti", _rotated_ti), ("triclinic", _triclinic))


# --- region labels from the benchmark's own eigen-solve -----------------------

def _spectrum(c: np.ndarray, rho: float, eta: np.ndarray, tau: float) -> np.ndarray:
    """Roots s of A(s) for nu = e3, from the 6x6 companion matrix."""
    a0 = c[:, 2, :, 2]
    a1 = np.einsum("ikm,m->ik", c[:, 2, :, :], eta)
    a2 = np.einsum("ijkm,j,m->ik", c, eta, eta) - rho * tau * tau * np.eye(3)
    inv = np.linalg.inv(a0)
    comp = np.block([[np.zeros((3, 3)), np.eye(3)],
                     [-inv @ a2, -inv @ (a1 + a1.T)]])
    return np.linalg.eigvals(comp)


# Relative distance in tau that a sampled frame keeps from a region transition.
REGION_MARGIN = 1e-2
MAX_FRAME_TRIES = 10000


def region_of(m, eta: np.ndarray, tau: float) -> str | None:
    """Region label of the frame (e3, eta, tau), or None near a transition.

    A frame counts as clear of glancing when the number of real roots is the
    same at tau * (1 -+ REGION_MARGIN) and no non-real root is close to the axis.
    """
    c, rho = m.stiffness.entries, m.density
    counts = []
    for t in (tau * (1.0 - REGION_MARGIN), tau, tau * (1.0 + REGION_MARGIN)):
        s = _spectrum(c, rho, eta, t)
        real = np.abs(s.imag) <= 1e-7 * (1.0 + np.abs(s))
        if t == tau and np.any(~real) and np.min(np.abs(s[~real].imag)) < 1e-3 * (1.0 + np.max(np.abs(s))):
            return None
        counts.append(int(np.sum(real)))
    if len(set(counts)) != 1:
        return None
    return {0: "elliptic", 6: "hyperbolic"}.get(counts[0], "mixed")


def _bulk_speeds(m, eta_hat: np.ndarray) -> tuple[float, float]:
    ell = np.einsum("ijkm,j,m->ik", m.stiffness.entries, eta_hat, eta_hat) / m.density
    vals = np.linalg.eigvalsh(ell)
    return float(np.sqrt(vals[0])), float(np.sqrt(vals[-1]))


def sample_frame(m, region: str, rng):
    """A seeded frame in the requested region, clear of glancing."""
    for _ in range(MAX_FRAME_TRIES):
        ang = rng.uniform(0.0, 2.0 * np.pi)
        mag = rng.uniform(0.5, 1.5)
        eta_hat = np.array([np.cos(ang), np.sin(ang), 0.0])
        vmin, vmax = _bulk_speeds(m, eta_hat)
        lo, hi = {"elliptic": (0.2 * vmin, vmin), "mixed": (vmin, vmax),
                  "hyperbolic": (vmax, 1.6 * vmax)}[region]
        tau = -mag * rng.uniform(lo, hi)
        if region_of(m, mag * eta_hat, tau) == region:
            return fz.BoundaryFrame(NU, mag * eta_hat, tau)
    raise RuntimeError(f"no {region} frame found for {m.name}")


# --- frame_sweep -------------------------------------------------------------

REGIONS = ("hyperbolic", "mixed", "elliptic")
_EXPECTED_DIM_EC = {"hyperbolic": (0,), "mixed": (1, 2), "elliptic": (3,)}


class FrameSweep:
    """One operation = boundary_polynomial -> factorize -> impedance ->
    mode_projectors -> classify at one seeded frame.

    Every round draws fresh frames, so no factorization repeats in a run.
    """

    name = "frame_sweep"
    materials_per_class = 2
    frames_per_slot = 2
    trace_rounds = 8

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        rng = _rng(seed, 0)
        self.recipes = [(cls, make(rng)) for cls, make in MATERIAL_CLASSES
                        for _ in range(self.materials_per_class)]

    def setup(self) -> None:
        self.materials = [(cls, build()) for cls, build in self.recipes]

    def round(self, k: int) -> list[Op]:
        ops = []
        for i, (cls, m) in enumerate(self.materials):
            rng = _rng(self.seed, 1, k, i)
            for region in REGIONS:
                for _ in range(self.frames_per_slot):
                    frame = sample_frame(m, region, rng)
                    ops.append(self._op(cls, m, frame, region, int(rng.integers(2**31))))
        return ops

    @staticmethod
    def _op(cls, m, frame, region, check_seed):
        def run():
            a = fz.boundary_polynomial(m, frame)
            f = fz.factorize(a, "outgoing")
            z = imp.impedance_from_factorization(a, f)
            pr = imp.mode_projectors(f)
            return z, pr, bd.classify(m, frame)

        def check(result):
            z, pr, label = result
            _gate(label.label == region, f"label {label.label}, expected {region}")
            _gate(pr.dim_ec in _EXPECTED_DIM_EC[region] and label.dim_ec[0] == pr.dim_ec,
                  f"dim E_c {pr.dim_ec} / {label.dim_ec} in the {region} region")
            zm, tau = z.z, frame.tau
            znorm = np.linalg.norm(zm)
            rng = np.random.default_rng(check_seed)
            for _ in range(4):
                u = rng.standard_normal(3) + 1j * rng.standard_normal(3)
                flux = -tau * np.imag(np.vdot(zm @ u, u))
                _gate(flux >= -1e-10 * abs(tau) * znorm * np.vdot(u, u).real,
                      f"negative outgoing flux {flux:g}")
            basis = pr.ec_basis()
            if basis.shape[1]:
                zc = basis.conj().T @ zm @ basis
                herm = np.linalg.norm(zc - zc.conj().T) / znorm
                _gate(herm <= 1e-8, f"z not Hermitian on E_c ({herm:g})")
            if cls != "isotropic":
                return 0.0
            zc = bd.iso_impedance_closed_form(m, frame).z
            err = float(np.linalg.norm(zm - zc) / np.linalg.norm(zc))
            _gate(err <= 1e-9, f"isotropic impedance off the closed form by {err:g}")
            return err

        return Op(f"{cls}/{region}", run, check)


# --- surface_waves -----------------------------------------------------------

class SurfaceWaves:
    """One operation = one Rayleigh or Stoneley speed solve.

    Azimuths are drawn fresh every round; the materials are fixed per seed.
    """

    name = "surface_waves"
    # (kind, count per round)
    mix = (("rayleigh/poisson", 1), ("rayleigh/ti", 2), ("rayleigh/rotated_ti", 3),
           ("stoneley/iso_pair", 1))
    trace_rounds = 1

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        rng = _rng(seed, 0)
        self.ti_args = (rng.uniform(0.9, 1.1), rng.uniform(0.9, 1.1), rng.uniform(0.02, 0.08),
                        rng.uniform(0.02, 0.08), rng.uniform(0.0, 0.04), NU, 1.0, "ti")
        self.tilted_args = (rng.uniform(0.9, 1.1), 1.0, rng.uniform(0.05, 0.15),
                            rng.uniform(0.1, 0.2), rng.uniform(0.05, 0.15), NU, 1.0,
                            "rotated_ti")
        tilt = rng.uniform(0.3, 1.2)
        self.tilt = np.array([[np.cos(tilt), 0.0, np.sin(tilt)], [0.0, 1.0, 0.0],
                              [-np.sin(tilt), 0.0, np.cos(tilt)]])

    def setup(self) -> None:
        self.poisson = mt.make_isotropic(1.0, 1.0, 1.0, "poisson")
        self.ti = mt.make_transversely_isotropic(*self.ti_args)
        m = mt.make_transversely_isotropic(*self.tilted_args)
        self.rotated_ti = mt.Material(mt.rotate_stiffness(m.stiffness, self.tilt),
                                      m.density, m.name)
        self.soft = mt.make_isotropic(2.0, 1.0, 1.0, "soft")
        self.hard = mt.make_isotropic(4.0, 3.0, 3.0, "hard")

    def round(self, k: int) -> list[Op]:
        rng = _rng(self.seed, 1, k)
        ops = []
        for kind, count in self.mix:
            for _ in range(count):
                ang = rng.uniform(0.0, 2.0 * np.pi)
                ops.append(self._op(kind, np.array([np.cos(ang), np.sin(ang), 0.0])))
        return ops

    def _op(self, kind, eta_hat):
        if kind == "stoneley/iso_pair":
            def run():
                return bd.stoneley_speed(self.soft, self.hard, NU, eta_hat)
        else:
            m = {"rayleigh/poisson": self.poisson, "rayleigh/ti": self.ti,
                 "rayleigh/rotated_ti": self.rotated_ti}[kind]

            def run():
                return bd.rayleigh_speed(m, NU, eta_hat)

        def check(res):
            _gate(0.0 < res.tau_r < res.tau_eta,
                  f"root {res.tau_r} outside (0, tau_eta = {res.tau_eta})")
            _gate(res.det_residual <= 1e-8, f"det residual {res.det_residual:g}")
            if kind != "rayleigh/poisson":
                return float(res.det_residual)
            err = abs(res.tau_r - C_R_POISSON) / C_R_POISSON
            _gate(err <= 1e-9, f"Poisson Rayleigh speed off by {err:g}")
            return max(err, float(res.det_residual))

        return Op(kind, run, check)


# --- layered_trace -----------------------------------------------------------

def _stack_recipe(rng):
    """Three layers (one TI) over a stiff half-space, moduli jittered by the seed.

    Returns a recipe that builds the layer materials, their thicknesses and
    the half-space.
    """
    j = rng.uniform(0.9, 1.1, size=11)
    thickness = rng.uniform(0.6, 1.4, size=3)

    def build():
        top = mt.make_isotropic(2.0 * j[0], 1.0 * j[1], 1.0, "top")
        mid = mt.make_transversely_isotropic(
            2.2 * j[2], 1.3 * j[3], 0.1 * j[4], 0.08 * j[5], 0.05 * j[6], NU, 1.2,
            "ti_layer")
        low = mt.make_isotropic(3.0 * j[7], 1.8 * j[8], 1.5, "low")
        half = mt.make_isotropic(9.0 * j[9], 5.0 * j[10], 2.5, "halfspace")
        return tuple(zip((top, mid, low), thickness)), half

    return build


class LayeredTrace:
    """One operation = one trace_plane_wave event tree.

    A round holds eleven traces with a 64-event budget and one with 512, each
    at its own (eta, tau).  With fewer than ten 512-event traces in a run,
    the tail percentile falls inside the 64-event group, several operations
    below its top.  The same round repeats, so every tree can be compared
    byte for byte with its first occurrence.
    """

    name = "layered_trace"
    budgets = (64,) * 11 + (512,)
    trace_rounds = 1

    def __init__(self, seed: int, workdir: str):
        rng = _rng(seed, 0)
        self.recipe = _stack_recipe(rng)
        layers, half = self.recipe()
        mats = [m for m, _ in layers] + [half]
        self.frames = []
        for _ in self.budgets:
            while True:
                ang = rng.uniform(0.0, 2.0 * np.pi)
                mag = rng.uniform(0.05, 0.35)
                eta = mag * np.array([np.cos(ang), np.sin(ang), 0.0])
                tau = -rng.uniform(0.8, 1.2)
                if all(region_of(m, eta, tau) is not None for m in mats):
                    break
            self.frames.append((eta[:2].copy(), tau))
        self.digests: dict[int, str] = {}

    def setup(self) -> None:
        self.stack = ly.LayerStack(*self.recipe())

    def round(self, k: int) -> list[Op]:
        return [self._op(i, budget) for i, budget in enumerate(self.budgets)]

    def _op(self, i, budget):
        eta, tau = self.frames[i]

        def run():
            return ly.trace_plane_wave(self.stack, eta, tau, max_events=budget)

        def check(tree):
            # Summed here rather than by layered.leaf_flux, so the check does
            # not rest on the code it checks.
            leaf = sum(e.flux for e in tree.events
                       if e.status in ("halfspace", "floored", "truncated", "glancing"))
            err = abs(leaf - tree.source_flux) / abs(tree.source_flux)
            _gate(err <= 1e-9, f"leaf flux off the source flux by {err:g}")
            doc = json.dumps(tree.to_dict(), sort_keys=True).encode()
            digest = hashlib.sha256(doc).hexdigest()
            _gate(self.digests.setdefault(i, digest) == digest,
                  f"trace {i} changed between repeats")
            return float(err)

        return Op(f"trace/{budget}", run, check)


# --- cli_session -------------------------------------------------------------

def _iso_doc(name, lam, mu, rho):
    return {"name": name, "density": rho,
            "stiffness": {"type": "isotropic", "lambda": lam, "mu": mu}}


_TI_DOC = {"name": "ti", "density": 1.0,
           "stiffness": {"type": "transversely_isotropic", "lambda": 1.0, "mu": 1.0,
                         "alpha": 0.05, "beta": 0.05, "gamma": 0.02,
                         "axis": [0.0, 0.0, 1.0]}}
# An orthotropic material given as an engineering Voigt matrix.
_ORTHO_DOC = {"name": "ortho", "density": 1.1,
              "stiffness": {"type": "voigt", "matrix": [
                  [4.2, 1.9, 1.7, 0.0, 0.0, 0.0],
                  [1.9, 3.9, 1.8, 0.0, 0.0, 0.0],
                  [1.7, 1.8, 3.6, 0.0, 0.0, 0.0],
                  [0.0, 0.0, 0.0, 1.1, 0.0, 0.0],
                  [0.0, 0.0, 0.0, 0.0, 1.2, 0.0],
                  [0.0, 0.0, 0.0, 0.0, 0.0, 1.25]]}}
MATERIAL_FILES = {
    "iso.json": _iso_doc("iso", 2.0, 1.0, 1.0),
    "poisson.json": _iso_doc("poisson", 1.0, 1.0, 1.0),
    "hard.json": _iso_doc("hard", 4.0, 3.0, 3.0),
    "ti.json": _TI_DOC,
    "ortho.json": _ORTHO_DOC,
    "stack.json": {
        "layers": [{"material": _iso_doc("top", 2.0, 1.0, 1.0), "thickness": 1.0},
                   {"material": _TI_DOC, "thickness": 0.8},
                   {"material": _iso_doc("low", 3.0, 1.8, 1.5), "thickness": 1.2}],
        "halfspace": _iso_doc("halfspace", 9.0, 5.0, 2.5)},
}

# Each command of the session has a few fixed variants; the seed picks one
# per command and round.  Golden outputs of every variant live in golden/.
CLI_COMMANDS = {
    "impedance": [
        ["impedance", "--material", "iso.json", "--eta", "1", "0", "--tau", "-0.5"],
        ["impedance", "--material", "ti.json", "--eta", "0.6", "0.8", "--tau", "-1.5"],
        ["impedance", "--material", "ortho.json", "--eta", "0.3", "0.2", "--tau", "-2.5"],
    ],
    "classify_grid": [
        ["classify", "--material", "iso.json", "--eta", "1", "0", "--tau", "-1.5",
         "--grid", "64"],
        ["classify", "--material-plus", "iso.json", "--material-minus", "hard.json",
         "--eta", "1", "0", "--tau", "-2.5", "--grid", "64"],
    ],
    "reflect_free": [
        ["reflect", "--material", "iso.json", "--eta", "1", "0", "--tau", "-2.5"],
        ["reflect", "--material", "ti.json", "--eta", "0.5", "0.5", "--tau", "-1.8",
         "--mode", "1"],
    ],
    "reflect_interface": [
        ["reflect", "--material-plus", "iso.json", "--material-minus", "hard.json",
         "--eta", "1", "0", "--tau", "-2.5"],
        ["reflect", "--material-plus", "ti.json", "--material-minus", "ortho.json",
         "--eta", "0.2", "0.4", "--tau", "-1.6", "--format", "csv"],
    ],
    "rayleigh": [
        ["rayleigh", "--material", "poisson.json", "--eta", "1", "0"],
        ["rayleigh", "--material", "ti.json", "--eta", "0.6", "0.8"],
    ],
    "stoneley": [
        ["stoneley", "--material-plus", "iso.json", "--material-minus", "hard.json",
         "--eta", "1", "0"],
    ],
    "trace": [
        ["trace", "--stack", "stack.json", "--eta", "0.1", "0.05", "--tau", "-1",
         "--max-events", "64"],
        ["trace", "--stack", "stack.json", "--eta", "0.3", "0", "--tau", "-1.1",
         "--max-events", "64"],
    ],
    "arrivals": [
        ["arrivals", "--stack", "stack.json", "--eta", "0.2", "0.1", "--tau", "-0.9",
         "--max-events", "64", "--format", "csv"],
    ],
}
# Commands per round; impedance runs twice so the median falls inside a group.
CLI_MIX = (("impedance", 2), ("classify_grid", 1), ("reflect_free", 1),
           ("reflect_interface", 1), ("rayleigh", 1), ("stoneley", 1), ("trace", 1),
           ("arrivals", 1))


def golden_name(command: str, variant: int) -> str:
    return f"{command}-{variant}.txt"


def write_cli_files(directory: str) -> None:
    for fname, doc in MATERIAL_FILES.items():
        with open(os.path.join(directory, fname), "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def run_cli(argv: list[str], directory: str) -> tuple[int, str, str]:
    """elaswave.cli.run in-process, with file arguments resolved in directory."""
    argv = [os.path.join(directory, a) if a.endswith(".json") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def _tokens(text: str) -> list[str]:
    """Scalar fields of a JSON or CSV output, in document order."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        return [f for line in text.splitlines() for f in line.split(",")]
    flat: list[str] = []

    def walk(node):
        if isinstance(node, dict):
            for key in sorted(node):
                flat.append(f"key:{key}")
                walk(node[key])
        elif isinstance(node, list):
            flat.append(f"list:{len(node)}")
            for item in node:
                walk(item)
        else:
            flat.append(str(node))

    walk(doc)
    return flat


# Numbers must agree with the goldens to GOLDEN_REL_TOL relative to
# max(|a|, |b|, GOLDEN_ZERO): below GOLDEN_ZERO in magnitude the tolerance is
# absolute, GOLDEN_REL_TOL * GOLDEN_ZERO = 1e-13.  The outputs are
# nondimensional and of order one, and fields that are zero up to roundoff
# (residuals, imaginary parts, null polarization components, 1e-17 to 1e-14)
# drift in their last digits by far more than 1e-10 of themselves.
GOLDEN_REL_TOL = 1e-10
GOLDEN_ZERO = 1e-3


def compare_to_golden(text: str, golden: str) -> float:
    """Largest scaled difference between numeric fields of two outputs.

    Non-numeric fields must match exactly; see GOLDEN_REL_TOL for numbers.
    """
    got, want = _tokens(text), _tokens(golden)
    _gate(len(got) == len(want), f"{len(got)} fields, golden has {len(want)}")
    worst = 0.0
    for g, w in zip(got, want):
        try:
            a, b = float(g), float(w)
        except ValueError:
            _gate(g == w, f"field {g!r} differs from golden {w!r}")
            continue
        diff = abs(a - b) / max(abs(a), abs(b), GOLDEN_ZERO)
        worst = max(worst, diff)
    _gate(worst <= GOLDEN_REL_TOL, f"numbers differ from golden by {worst:g}")
    return worst


class CliSession:
    """One operation = one elaswave.cli.run call over files written for the run.

    Set-up loads every material and the stack file through elaswave, the
    loading each command repeats for itself.
    """

    name = "cli_session"
    trace_rounds = 1

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        os.makedirs(workdir, exist_ok=True)
        self.directory = tempfile.mkdtemp(prefix="cli-", dir=workdir)
        write_cli_files(self.directory)
        self.golden = {}
        for command, variants in CLI_COMMANDS.items():
            for v in range(len(variants)):
                with open(os.path.join(GOLDEN_DIR, golden_name(command, v)),
                          encoding="utf-8") as fh:
                    self.golden[command, v] = fh.read()
        self.output_bytes = 0

    def setup(self) -> None:
        paths = {f: os.path.join(self.directory, f) for f in MATERIAL_FILES}
        self.stack = ly.load_stack(paths.pop("stack.json"))
        self.materials = {f: mt.load_material(p) for f, p in paths.items()}

    def close(self) -> None:
        shutil.rmtree(self.directory, ignore_errors=True)

    def round(self, k: int) -> list[Op]:
        rng = _rng(self.seed, 1, k)
        ops = [self._op(command, int(rng.integers(len(CLI_COMMANDS[command]))))
               for command, count in CLI_MIX for _ in range(count)]
        order = rng.permutation(len(ops))
        return [ops[i] for i in order]

    def _op(self, command, variant):
        argv = CLI_COMMANDS[command][variant]

        def run():
            code, out, err = run_cli(argv, self.directory)
            self.output_bytes += len(out.encode())
            return code, out, err

        def check(result):
            code, out, err = result
            _gate(code == 0, f"exit code {code}: {err.strip()}")
            return compare_to_golden(out, self.golden[command, variant])

        return Op(command, run, check)


WORKLOADS = {
    "frame_sweep": FrameSweep,
    "surface_waves": SurfaceWaves,
    "layered_trace": LayeredTrace,
    "cli_session": CliSession,
}

