"""SHA-256 digests of elaswave's outputs, to show that a change keeps them byte for byte.

    python3 tools/output_digest.py [--seed 0] [--against REF]

Run it on two checkouts and compare the printed lines: equal digests mean
equal bytes.  With --against REF it does that itself: it runs the digest of
REF (any git revision) in a temporary `git worktree` and that of the working
tree, prints the names of the lines that differ, and exits 1 if any does.
It covers

  * cli: stdout, stderr and exit code of every golden CLI command of
    bench/workloads.py, run in-process on the material and stack files that
    module writes (the temporary directory's path is replaced by "<dir>");
  * spectra: boundary polynomials, spectrum classifications, both
    factorizations (with q_spectrum and solvency_residual) and their mode
    projectors at seeded frames in all three regions and 1e-10 either side
    of the elliptic limit tau_L, on seeded isotropic, weak TI, rotated TI
    and triclinic materials; an error counts by its type and message;
  * surface_waves: every float of the seeded Rayleigh and Stoneley solves
    of the surface_waves workload;
  * trees: the event trees of the layered_trace workload, as JSON, the
    same frames again with event budgets of 1 and 2, with the source in
    layer 1 and with source mode 1 (laws, incoming projectors and delays
    that a mode-0 source in the top layer does not reach first; an error
    counts by its type and message), and a trace at the frame where the
    half-space glances, so that the law above it fails and every segment
    meeting it ends as a glancing leaf;
  * errors: the (type, message) of the error, or that there was none, of
    classify_frames, ellipticity_margin, classify, boundary_polynomial,
    classify_spectrum and factorize on seeded failing inputs: grids longer
    than one stack with a tau = -1e80 frame at seeded positions (one
    material, and pairs with a second seeded or a non-convex material), a
    non-convex material, a NaN A2, frames at the elliptic limit tau_L and a
    glancing isotropic frame.

Floats are hashed as their bytes, so a last-bit change shows.  The inputs
come from bench/workloads.py (its seeded materials, frames, workloads and CLI
commands), read through its public names.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

import numpy as np  # noqa: E402

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
        _feed(h, {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)})
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


def surface_wave_digest(seed: int, directory: str) -> str:
    w = workloads.SurfaceWaves(seed, directory)
    w.setup()
    h = hashlib.sha256()
    _feed(h, _run_ops(w, 2))
    return h.hexdigest()


def _glancing_frame(stack, eta) -> tuple:
    """(eta, tau) with |eta| = 1 along eta and tau at the shear transition
    of the (isotropic) half-space, tau^2 = mu / rho, where its double shear
    root s = 0 glances."""
    half = stack.halfspace
    mu = mt.decompose_harmonic(half.stiffness).mu
    return np.asarray(eta) / np.linalg.norm(eta), -float(np.sqrt(mu / half.density))


def tree_digest(seed: int, directory: str) -> str:
    w = workloads.LayeredTrace(seed, directory)
    w.setup()
    h = hashlib.sha256()
    trees = _run_ops(w, 1)
    trees += [ly.trace_plane_wave(w.stack, eta, tau, max_events=budget)
              for eta, tau in w.frames for budget in (1, 2)]
    trees += [_outcome(lambda: ly.trace_plane_wave(w.stack, eta, tau, source_layer=layer,
                                                   source_mode=mode, max_events=64))
              for eta, tau in w.frames for layer, mode in ((1, 0), (0, 1))]
    eta, tau = _glancing_frame(w.stack, w.frames[0][0])
    trees.append(_outcome(lambda: ly.trace_plane_wave(w.stack, eta, tau, max_events=64)))
    for tree in trees:
        doc = tree if isinstance(tree, tuple) else tree.to_dict()
        h.update(json.dumps(doc, sort_keys=True).encode())
    return h.hexdigest()


def cli_digests(directory: str) -> list:
    workloads.write_cli_files(directory)
    lines = []
    for command, variants in workloads.CLI_COMMANDS.items():
        for variant, argv in enumerate(variants):
            code, out, err = workloads.run_cli(argv, directory)
            h = hashlib.sha256()
            for part in (out, err, str(code)):
                h.update(part.replace(directory, "<dir>").encode() + b"\0")
            lines.append((workloads.golden_name(command, variant), h.hexdigest()))
    return lines


def _digest_lines(root: str, seed: int) -> dict:
    """name -> digest of the lines the digest of the checkout at root prints."""
    out = subprocess.run([sys.executable, os.path.join(root, "tools", "output_digest.py"),
                          "--seed", str(seed)], cwd=root, check=True, capture_output=True,
                         text=True).stdout
    return {name: digest for digest, name in (line.split(maxsplit=1) for line in out.splitlines())}


def compare(ref: str, seed: int) -> int:
    """Print the names of the digest lines that differ between the git
    revision ref and the working tree; 1 if any does, else 0."""
    def git(*args):
        subprocess.run(["git", "-C", ROOT, *args], check=True, capture_output=True)

    with tempfile.TemporaryDirectory() as parent:
        tree = os.path.join(parent, "ref")
        git("worktree", "add", "--detach", tree, ref)
        try:
            theirs = _digest_lines(tree, seed)
        finally:
            git("worktree", "remove", "--force", tree)
    mine = _digest_lines(ROOT, seed)
    differ = [name for name in dict.fromkeys([*theirs, *mine])
              if theirs.get(name) != mine.get(name)]
    for name in differ:
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
        lines += [("spectra", spectra_digest(args.seed)),
                  ("surface_waves", surface_wave_digest(args.seed, directory)),
                  ("trees", tree_digest(args.seed, directory)),
                  ("errors", errors_digest(args.seed))]
    total = hashlib.sha256()
    for name, digest in lines:
        print(f"{digest}  {name}")
        total.update(f"{name}:{digest}\n".encode())
    print(f"{total.hexdigest()}  all")
    return 0


if __name__ == "__main__":
    sys.exit(main())
