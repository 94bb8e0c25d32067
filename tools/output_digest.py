"""SHA-256 digests of elaswave's outputs, to show that a change keeps them byte for byte.

    python3 tools/output_digest.py [--seed 0] [--against REF]

Run it on two checkouts and compare the printed lines: equal digests mean
equal bytes.  With --against REF it does that itself: it unpacks REF (any
git revision) into a temporary directory (git_archive.py), runs this
script there on REF's source and here on the working tree's, prints the
names of the lines that differ, and exits 1 if any does.  It covers

  * cli: stdout, stderr and exit code of every golden CLI command of
    bench/workloads.py and of MORE_CLI_COMMANDS (the other JSON document
    shapes: material, material --validate, slowness as JSON and CSV,
    factorize, single-frame classify at a boundary and an interface,
    reflect --format json; classify --grid of an odd N, 7 at a boundary
    and 5 at an interface, which solves every azimuth where an even N
    solves half; the file trace --out writes; an error of exit code 2 and
    one of 3), run in-process on the material and stack files
    that bench/workloads.py writes (the temporary directory's path is
    replaced by "<dir>");
  * spectra: boundary polynomials, spectrum classifications, both
    factorizations (with q_spectrum and solvency_residual) and their mode
    projectors at seeded frames in all three regions and 1e-10 either side
    of the elliptic limit tau_L, on seeded isotropic, weak TI, rotated TI
    and triclinic materials; an error counts by its type and message;
  * surface_waves: every float of the seeded Rayleigh and Stoneley solves
    of the surface_waves workload;
  * surface_waves_anisotropic: every float, or the error, of seeded
    Rayleigh solves on triclinic, rotated TI and negative-lambda materials
    (lambda near -mu; past it the impedance at low tau is not positive
    definite: NoSurfaceWave) and of Stoneley solves on pairs (a material with
    a stiffer, denser copy of itself, which often carries a wave, and two
    unrelated materials, which mostly raise NoSurfaceWave), at seeded
    azimuths;
  * surface_wave_probes: the number of Schur forms (factorization._schur
    calls) of each solve of the two lines above, so that a change to the
    root search shows whether it keeps the probes, not only the floats; the
    line ends with their sum, and where it differs --against prints both
    sums ("surface_wave_probes: N → M Schur forms"), so that the way the
    probe count moved shows;
  * limit_fallbacks: the number of each solve's Barnett-Lothe limits
    (boundary._limiting_tau) whose Newton steps failed, so that they fell
    back to the grid's least point; the line ends with "K of M limits",
    and --against prints both K where they differ, so that a change that
    starts to lean on that fallback shows;
  * trees: the event trees of the layered_trace workload, as JSON, the
    same frames again with event budgets of 1 and 2, with the source in
    layer 1 and with source mode 1 (laws, incoming projectors and delays
    that a mode-0 source in the top layer does not reach first; an error
    counts by its type and message), a trace at the frame where the
    half-space glances, so that the law above it fails and every segment
    meeting it ends as a glancing leaf, and traces through a fast top layer
    and through two adjacent fast layers at a slowness evanescent in them,
    whose laws there no segment meets;
  * tree_fields: the same trees without their event and arrival times,
    every other field as in the trees line, so that a change that moves
    only crossing times differs in trees and not here;
  * tree_shapes: the same trees' shapes, (uid, parent, layer, direction,
    status) of every event and an error by its type only, so that a change
    that moves only the trees' last digits leaves this line as it is;
  * errors: the (type, message) of the error, or that there was none, of
    classify_frames, ellipticity_margin, classify, boundary_polynomial,
    classify_spectrum and factorize on seeded failing inputs: grids longer
    than one stack with a tau = -1e80 frame at seeded positions (one
    material, and pairs with a second seeded or a non-convex material), a
    non-convex material, a NaN A2, frames at the elliptic limit tau_L and a
    glancing isotropic frame.

Floats are hashed as their bytes, so a last-bit change shows.  A spectrum
group's `sign_form` is left out of the spectra line: it is kernel^H A'(value)
kernel, of numbers that line hashes, and without it the line compares with
checkouts from before groups held it; the trees read it through their
crossing times.  The inputs
come from bench/workloads.py (its seeded materials, frames, workloads and CLI
commands), read through its public names.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

import numpy as np  # noqa: E402

import git_archive  # noqa: E402   tools/git_archive.py
import workloads  # noqa: E402
from elaswave import boundary as bd  # noqa: E402
from elaswave import factorization as fz  # noqa: E402
from elaswave import impedance as imp  # noqa: E402
from elaswave import layered as ly  # noqa: E402
from elaswave import materials as mt  # noqa: E402
from elaswave.errors import ElasticError  # noqa: E402

MATERIALS_PER_CLASS = 2
FRAMES_PER_REGION = 6
GRID_FRAMES = 300       # more than one stack of classify_frames
SURFACE_WAVE_ROUNDS = 6
UNHASHED_FIELDS = {"sign_form"}     # dataclass fields _feed leaves out (see above)


def _feed(h, obj) -> None:
    """Hash obj's content: arrays and scalars by their bytes, containers
    and dataclasses item by item, anything else by its repr."""
    if isinstance(obj, (np.ndarray, np.generic, float, complex)):
        arr = np.asarray(obj)
        h.update(f"{arr.dtype.str}{arr.shape}".encode())
        h.update(arr.tobytes())
    elif isinstance(obj, (list, tuple)):
        h.update(f"[{len(obj)}".encode())
        for item in obj:
            _feed(h, item)
    elif isinstance(obj, dict):
        h.update(f"{{{len(obj)}".encode())
        for key in sorted(obj):
            _feed(h, key)
            _feed(h, obj[key])
    elif dataclasses.is_dataclass(obj):
        h.update(type(obj).__name__.encode())
        _feed(h, {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)
                  if f.name not in UNHASHED_FIELDS})
    else:
        h.update(repr(obj).encode())


def _outcome(fn):
    """fn()'s result, or its elaswave error as (type name, message)."""
    try:
        return fn()
    except ElasticError as exc:
        return ("error", type(exc).__name__, str(exc))


def _polynomial(a):
    return (a.a0, a.a1, a.a2, a.scale, a.frame)


def _classification(cls):
    return (cls.groups, cls.stroh_norm, cls.schur)


def _factorization(f):
    return (f.q, f.q_sharp, f.sigma, f.direction, f.tau, f.q_spectrum, f.solvency_residual,
            imp.mode_projectors(f))


def _frame_results(m, frame) -> list:
    a = _outcome(lambda: fz.boundary_polynomial(m, frame))
    if isinstance(a, tuple):
        return [a]
    cls = _outcome(lambda: fz.classify_spectrum(a))
    out = [_polynomial(a), cls if isinstance(cls, tuple) else _classification(cls)]
    for direction in ("outgoing", "incoming"):
        f = _outcome(lambda: fz.factorize(a, direction))
        out.append(f if isinstance(f, tuple) else _factorization(f))
    return out


def _frames(m, rng) -> list:
    frames = [workloads.sample_frame(m, region, rng)
              for region in workloads.REGIONS for _ in range(FRAMES_PER_REGION)]
    ang = rng.uniform(0.0, 2.0 * np.pi)
    eta_hat = np.array([np.cos(ang), np.sin(ang), 0.0])
    tau_l = bd.tau_limit(m, workloads.NU, eta_hat)
    frames += [fz.BoundaryFrame(workloads.NU, eta_hat, -tau_l * (1.0 + d))
               for d in (-1e-10, 1e-10)]
    return frames


def spectra_digest(seed: int) -> str:
    h = hashlib.sha256()
    for k, (_, make) in enumerate(workloads.MATERIAL_CLASSES):
        for j in range(MATERIALS_PER_CLASS):
            rng = np.random.default_rng([seed, k, j])
            m = make(rng)()
            for frame in _frames(m, rng):
                _feed(h, _frame_results(m, frame))
    return h.hexdigest()


def _error(fn):
    """(type name, message) of the elaswave error fn() raises, or None; the
    results themselves are hashed by the other sections."""
    try:
        fn()
    except ElasticError as exc:
        return type(exc).__name__, str(exc)
    return None


def _grid_errors(h, materials, frames, rng) -> None:
    """The errors of a grid with its frame at a seeded position, one in each
    stack of classify_frames, moved to tau = -1e80."""
    for at in (rng.integers(256), rng.integers(256, len(frames))):
        grid = list(frames)
        grid[at] = grid[at].with_tau(-1e80)
        _feed(h, [_error(lambda: list(bd.classify_frames(materials, grid))),
                  _error(lambda: bd.ellipticity_margin(materials, grid)),
                  _error(lambda: bd.classify(materials, grid[at]))])


def _spectral_errors(a, tau=None) -> list:
    return [_error(lambda: fz.classify_spectrum(a)),
            *(_error(lambda: fz.factorize(a, d, tau)) for d in ("outgoing", "incoming"))]


def errors_digest(seed: int) -> str:
    h = hashlib.sha256()
    nonconvex = mt.make_isotropic(1.0, -1.0, 1.0)
    for k, (_, make) in enumerate(workloads.MATERIAL_CLASSES):
        rng = np.random.default_rng([seed, k, 7])
        m, other = make(rng)(), make(rng)()
        base = [workloads.sample_frame(m, region, rng) for region in workloads.REGIONS]
        frames = [base[j % len(base)] for j in range(GRID_FRAMES)]
        for materials in (m, (m, other), (m, nonconvex), (nonconvex, m)):
            _grid_errors(h, materials, frames, rng)
        _feed(h, [_error(lambda: fz.boundary_polynomial(nonconvex, base[0])),
                  _error(lambda: list(bd.classify_frames(nonconvex, base)))])
        nan_a2 = fz.boundary_polynomial(m, base[0]).with_a2(np.full((3, 3), np.nan))
        _feed(h, _spectral_errors(nan_a2))
        ang = rng.uniform(0.0, 2.0 * np.pi)
        eta_hat = np.array([np.cos(ang), np.sin(ang), 0.0])
        limit = fz.BoundaryFrame(workloads.NU, eta_hat, -bd.tau_limit(m, workloads.NU, eta_hat))
        _feed(h, [_error(lambda: bd.classify(m, limit)),
                  _error(lambda: list(bd.classify_frames((m, other), [limit]))),
                  *_spectral_errors(fz.boundary_polynomial(m, limit))])
    bare = fz.QuadraticMatrixPolynomial(np.eye(3), np.zeros((3, 3)), np.full((3, 3), np.nan))
    _feed(h, _spectral_errors(bare, -1.0))
    iso = mt.make_isotropic(2.0, 1.0, 1.0)
    _feed(h, _spectral_errors(fz.boundary_polynomial(
        iso, fz.BoundaryFrame(workloads.NU, np.array([1.0, 0.0, 0.0]), -1.0))))
    return h.hexdigest()


def _run_ops(workload, rounds: int) -> list:
    return [op.run() for k in range(rounds) for op in workload.round(k)]


def surface_wave_solves(seed: int, directory: str) -> list:
    """The seeded Rayleigh and Stoneley solves of two surface_waves rounds."""
    w = workloads.SurfaceWaves(seed, directory)
    w.setup()
    return [op.run for k in range(2) for op in w.round(k)]


def probe_counts(solves: list) -> tuple[list, list, list, int]:
    """Each solve's outcome, the number of Schur forms it took (its calls of
    factorization._schur, one per probe stack) and the number of its
    Barnett-Lothe limits that fell back to the grid's least point (calls of
    boundary._newton_minimum that gave None); and the number of limits."""
    real_schur, real_newton, count = fz._schur, bd._newton_minimum, {}

    def schur(s6):
        count["schur"] += 1
        return real_schur(s6)

    def newton(*args):
        least = real_newton(*args)
        count["limits"] += 1
        count["fallbacks"] += least is None
        return least

    outcomes, schurs, fallbacks, limits = [], [], [], 0
    fz._schur, bd._newton_minimum = schur, newton
    try:
        for solve in solves:
            count.update(schur=0, fallbacks=0, limits=0)
            outcomes.append(_outcome(solve))
            schurs.append(count["schur"])
            fallbacks.append(count["fallbacks"])
            limits += count["limits"]
    finally:
        fz._schur, bd._newton_minimum = real_schur, real_newton
    return outcomes, schurs, fallbacks, limits


def _hash(*objs) -> str:
    h = hashlib.sha256()
    for obj in objs:
        _feed(h, obj)
    return h.hexdigest()


def _negative_lambda(rng) -> mt.Material:
    """Isotropic with lambda/mu drawn from (-1.5, -0.5), plus a 5 % triclinic
    part: strongly elliptic, but past lambda = -mu the impedance at low tau
    is no longer positive definite."""
    mu = rng.uniform(0.8, 1.2)
    g = rng.uniform(-0.05, 0.05, (6, 6))
    voigt = mt.to_voigt(mt.isotropic_stiffness(mu * rng.uniform(-1.5, -0.5), mu))
    return mt.Material(mt.from_voigt(voigt + mu * (g + g.T)), rng.uniform(0.8, 1.2),
                       "negative_lambda")


def _stiffer_copy(m, rng) -> mt.Material:
    """m three times as stiff and dense, its Voigt matrix jittered by up to
    5 % where that keeps it strongly convex."""
    g = rng.uniform(-0.05, 0.05, (6, 6))
    voigt = 3.0 * mt.to_voigt(m.stiffness)
    jittered = mt.from_voigt(voigt * (1.0 + 0.5 * (g + g.T)))
    stiffness = (jittered if mt.check_strong_convexity(jittered)[0]
                 else mt.from_voigt(voigt))
    return mt.Material(stiffness, 3.0 * m.density, "stiffer")


def anisotropic_surface_wave_solves(seed: int) -> list:
    """The seeded Rayleigh and Stoneley solves of the
    surface_waves_anisotropic line."""
    makers = dict(workloads.MATERIAL_CLASSES)
    out = []
    for k in range(SURFACE_WAVE_ROUNDS):
        rng = np.random.default_rng([seed, 11, k])
        tri, rti = makers["triclinic"](rng)(), makers["rotated_ti"](rng)()
        solves = [(bd.rayleigh_speed, (m,)) for m in (tri, rti, _negative_lambda(rng))]
        solves += [(bd.stoneley_speed, pair) for pair in (
            (tri, _stiffer_copy(tri, rng)), (rti, _stiffer_copy(rti, rng)), (tri, rti))]
        for solve, materials in solves:
            ang = rng.uniform(0.0, 2.0 * np.pi)
            eta_hat = np.array([np.cos(ang), np.sin(ang), 0.0])
            out.append(functools.partial(solve, *materials, workloads.NU, eta_hat))
    return out


def _glancing_frame(stack, eta) -> tuple:
    """(eta, tau) with |eta| = 1 along eta and tau at the shear transition
    of the (isotropic) half-space, tau^2 = mu / rho, where its double shear
    root s = 0 glances."""
    half = stack.halfspace
    mu = mt.decompose_harmonic(half.stiffness).mu
    return np.asarray(eta) / np.linalg.norm(eta), -float(np.sqrt(mu / half.density))


def digest_trees(seed: int, directory: str) -> list:
    """The trees of the trees line: EventTrees, or errors as (type, message)."""
    w = workloads.LayeredTrace(seed, directory)
    w.setup()
    trees = _run_ops(w, 1)
    trees += [ly.trace_plane_wave(w.stack, eta, tau, max_events=budget)
              for eta, tau in w.frames for budget in (1, 2)]
    trees += [_outcome(lambda: ly.trace_plane_wave(w.stack, eta, tau, source_layer=layer,
                                                   source_mode=mode, max_events=64))
              for eta, tau in w.frames for layer, mode in ((1, 0), (0, 1))]
    eta, tau = _glancing_frame(w.stack, w.frames[0][0])
    trees.append(_outcome(lambda: ly.trace_plane_wave(w.stack, eta, tau, max_events=64)))
    slow = mt.make_isotropic(2.0, 1.0, 1.0, "slow")
    fast = mt.make_isotropic(40.0, 20.0, 1.0, "fast")
    for layers, source in (((fast, slow, fast), 1), ((slow, fast, fast), 0)):
        stack = ly.LayerStack(tuple(zip(layers, (0.5, 0.7, 0.6))), fast)
        trees.append(_outcome(lambda: ly.trace_plane_wave(stack, (0.4, 0.0), -1.0,
                                                          source_layer=source, max_events=64)))
    return trees


def tree_digest(trees: list, drop: tuple = ()) -> str:
    """The trees as JSON, an error as (type, message); the keys in drop are
    left out of every event and arrival."""
    h = hashlib.sha256()
    for tree in trees:
        doc = tree if isinstance(tree, tuple) else tree.to_dict()
        for row in () if isinstance(tree, tuple) else doc["events"] + doc["arrivals"]:
            for key in drop:
                del row[key]
        h.update(json.dumps(doc, sort_keys=True).encode())
    return h.hexdigest()


def tree_shape_digest(trees: list) -> str:
    """The trees' shapes: (uid, parent, layer, direction, status) of every
    event, an error by its type only."""
    h = hashlib.sha256()
    for tree in trees:
        _feed(h, tree[:2] if isinstance(tree, tuple) else [
            (e.uid, e.parent, e.layer, e.direction, e.status) for e in tree.events])
    return h.hexdigest()


# CLI outputs the goldens do not cover: every other JSON document shape, the
# JSON and CSV of slowness, classify grids of an odd N (which solve every
# azimuth; the goldens' even N solve half and print the antipodes), a file
# written by --out and one error path of each exit code.  Files as in bench/workloads.py; "<file>" in the last
# argument names the --out file, whose content is hashed after the streams.
MORE_CLI_COMMANDS = {
    "material": ["material", "ti.json"],
    "material_validate": ["material", "--validate", "--material", "ortho.json"],
    "slowness_json": ["slowness", "--material", "ti.json", "--grid", "16"],
    "slowness_csv": ["slowness", "--material", "ortho.json", "--direction", "0.3", "0.4",
                     "1", "--format", "csv"],
    "factorize": ["factorize", "--material", "ti.json", "--eta", "0.6", "0.8",
                  "--tau", "-1.5"],
    "classify_boundary": ["classify", "--material", "iso.json", "--eta", "1", "0",
                          "--tau", "-1.5"],
    "classify_interface": ["classify", "--material-plus", "iso.json", "--material-minus",
                           "hard.json", "--eta", "1", "0", "--tau", "-2.5"],
    "classify_grid_odd": ["classify", "--material", "iso.json", "--eta", "1", "0",
                          "--tau", "-1.5", "--grid", "7"],
    "classify_grid_odd_interface": ["classify", "--material-plus", "iso.json",
                                    "--material-minus", "hard.json", "--eta", "1", "0",
                                    "--tau", "-2.5", "--grid", "5"],
    "reflect_json": ["reflect", "--material", "ti.json", "--eta", "0.6", "0.8",
                     "--tau", "-1.5", "--format", "json"],
    "trace_out_file": ["trace", "--stack", "stack.json", "--eta", "0.1", "0.05",
                       "--tau", "-1", "--max-events", "64", "--out", "<file>"],
    "error_exit_2": ["impedance", "--material", "iso.json", "--eta", "1", "0",
                     "--tau", "nan"],
    "error_exit_3": ["impedance", "--material", "iso.json", "--eta", "1e160", "0",
                     "--tau", "-1"],
}


def _cli_digest(argv: list, directory: str) -> str:
    out_file = os.path.join(directory, "out.txt")
    argv = [out_file if a == "<file>" else a for a in argv]
    code, out, err = workloads.run_cli(argv, directory)
    parts = [out, err, str(code)]
    if out_file in argv:
        with open(out_file, encoding="utf-8") as fh:
            parts.append(fh.read())
        os.remove(out_file)
    h = hashlib.sha256()
    for part in parts:
        h.update(part.replace(directory, "<dir>").encode() + b"\0")
    return h.hexdigest()


def cli_digests(directory: str) -> list:
    workloads.write_cli_files(directory)
    lines = [(workloads.golden_name(command, variant), _cli_digest(argv, directory))
             for command, variants in workloads.CLI_COMMANDS.items()
             for variant, argv in enumerate(variants)]
    lines += [(name, _cli_digest(argv, directory)) for name, argv in MORE_CLI_COMMANDS.items()]
    return lines


def _digest_lines(root: str, seed: int) -> dict:
    """name -> (digest, count) of the lines the digest of the checkout at
    root prints, where count is the "N unit" a line ends with, or ""."""
    out = subprocess.run([sys.executable, os.path.join(root, "tools", "output_digest.py"),
                          "--seed", str(seed)], cwd=root, check=True, capture_output=True,
                         text=True).stdout
    lines = (line.split(maxsplit=2) for line in out.splitlines())
    return {name: (digest, count[0] if count else "") for digest, name, *count in lines}


def compare(ref: str, seed: int) -> int:
    """Print the names of the digest lines that differ between the git
    revision ref and the working tree, both hashed by this script; 1 if any
    does, else 0."""
    with tempfile.TemporaryDirectory() as tree:
        git_archive.extract(ref, tree)
        for name in ("output_digest.py", "git_archive.py"):
            shutil.copy(os.path.join(ROOT, "tools", name), os.path.join(tree, "tools", name))
        theirs = _digest_lines(tree, seed)
    mine = _digest_lines(ROOT, seed)
    differ = [name for name in dict.fromkeys([*theirs, *mine])
              if theirs.get(name) != mine.get(name)]
    for name in differ:
        counts = [lines.get(name, ("", ""))[1] for lines in (theirs, mine)]
        if all(counts):
            (n_theirs, unit), (n_mine, _) = (count.split(maxsplit=1) for count in counts)
            print(f"{name}: {n_theirs} → {n_mine} {unit}")
        else:
            print(name)
    print(f"{len(differ)} of {len(mine)} lines differ from {ref} (seed {seed})")
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--against", metavar="REF",
                        help="git revision whose digest lines to compare with the working tree's")
    args = parser.parse_args(argv)
    if args.against is not None:
        return compare(args.against, args.seed)
    with tempfile.TemporaryDirectory() as directory:
        lines = cli_digests(directory)
        trees = digest_trees(args.seed, directory)
        spectra = spectra_digest(args.seed)
        surface, probes, fallbacks, limits = probe_counts(
            surface_wave_solves(args.seed, directory))
        anisotropic, anisotropic_probes, anisotropic_fallbacks, anisotropic_limits = (
            probe_counts(anisotropic_surface_wave_solves(args.seed)))
        lines += [("spectra", spectra),
                  ("surface_waves", _hash(surface)),
                  ("surface_waves_anisotropic", _hash(*anisotropic)),
                  ("surface_wave_probes", _hash(probes, anisotropic_probes)),
                  ("limit_fallbacks", _hash(fallbacks, anisotropic_fallbacks)),
                  ("trees", tree_digest(trees)),
                  ("tree_fields", tree_digest(trees, drop=("time",))),
                  ("tree_shapes", tree_shape_digest(trees)),
                  ("errors", errors_digest(args.seed))]
    counts = {"surface_wave_probes": f"  {sum(probes) + sum(anisotropic_probes)} Schur forms",
              "limit_fallbacks": f"  {sum(fallbacks) + sum(anisotropic_fallbacks)} of "
                                 f"{limits + anisotropic_limits} limits"}
    total = hashlib.sha256()
    for name, digest in lines:
        print(f"{digest}  {name}{counts.get(name, '')}")
        total.update(f"{name}:{digest}\n".encode())
    print(f"{total.hexdigest()}  all")
    return 0


if __name__ == "__main__":
    sys.exit(main())
