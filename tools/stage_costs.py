"""Cost of each frame-core stage for a stack of one and per entry of a stack of 16.

    python3 tools/stage_costs.py [--repeats 21]

The frames are those of round 0 of bench/run.py's frame_sweep workload at
seed 1: two materials of each of its four classes (isotropic, weak TI,
rotated TI, triclinic) and two frames of each material in each of the three
regions, 48 (material, frame) pairs in all.  For each stage the tool times
the one-frame entry point on every pair (a stack of one) and the stacked
stage on the pairs taken 16 at a time, and divides each total by 48:

  polynomial      boundary_polynomial        _polynomial_stacks
  classification  classify_spectrum          _classify
  factorization   factorize (outgoing, from  _factorize
                  the classification)
  projectors      mode_projectors            _mode_projectors

and times the frame_sweep operation itself (boundary_polynomial, factorize,
impedance, mode_projectors and boundary.classify of one frame).

Two more rows time the surface-wave probe, per probe, on the materials of
round 0 of bench/run.py's surface_waves workload at seed 1, each at the
azimuth of its operation (the two materials of its Stoneley pair each on
their own): the polynomial moved to tau = -0.9 tau_eta, inside the elliptic
interval, and then

  z probe         its outgoing impedance matrix (boundary._outgoing_z), what
                  each step of a Rayleigh search reads
  z probe floor   the z probe's LAPACK and matmul calls alone, with no
                  groups, records or checks: the Stroh matrix at tau, zgees,
                  ztrsen of the eigenvalues with Im > 0 (the outgoing half
                  at an elliptic frame), svdvals and inv of X1, Q, A0 Q, Q#,
                  the eigenvalues of Q and Q#, z and eigvalsh of its
                  Hermitian part (z_probe_floor); a line under the table
                  prints how far the z probe lies above it
  spectrum probe  whether its spectrum is fully evanescent
                  (boundary._fully_evanescent), each step of tau_limit.

A last row times each whole operation of that round, a Rayleigh or Stoneley
solve (its tau_limit, its z probes and the root's z), per solve:

  surface solve   the operation's bd.rayleigh_speed or bd.stoneley_speed

and a line under the table counts the z builds each of those solves made
(calls of the z function its root search takes, a Stoneley pair's stacked
probe counting once), per solve.

The stages, the operation and the probes take turns within each repeat, so
that a busy machine's drift falls on all of them, and the tool prints the
median over repeats of each time in microseconds.  BLAS runs on one thread,
as in bench/run.py.
"""
from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
if __name__ == "__main__":      # must precede numpy
    for _var in THREAD_VARS:
        os.environ[_var] = "1"

import argparse  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

from elaswave import _lapack  # noqa: E402
from elaswave import boundary as bd  # noqa: E402
from elaswave import factorization as fz  # noqa: E402
from elaswave import impedance as imp  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402   bench/workloads.py

SEED = 1
STACK = 16


def frame_pairs() -> list:
    """(material class, material, frame, region) of each operation of round 0
    of frame_sweep at SEED, in the round's order."""
    with tempfile.TemporaryDirectory() as workdir:
        sweep = workloads.FrameSweep(SEED, workdir)
        sweep.setup()
    pairs = []
    # the round hands each operation's arguments to _op: keep them instead
    sweep._op = lambda cls, m, frame, region, check_seed: pairs.append((cls, m, frame, region))
    sweep.round(0)
    return pairs


def probe_polynomials() -> list:
    """(kind, material, eta_hat, polynomial at tau = -1, tau_eta) of each
    material of each operation of round 0 of surface_waves at SEED, in the
    round's order; a Stoneley operation gives its + and then its - material."""
    with tempfile.TemporaryDirectory() as workdir:
        waves = workloads.SurfaceWaves(SEED, workdir)
        waves.setup()
    ops = []
    # the round hands each operation's kind and azimuth to _op: keep them instead
    waves._op = lambda kind, eta_hat: ops.append((kind, eta_hat))
    waves.round(0)
    materials = {"rayleigh/poisson": (waves.poisson,), "rayleigh/ti": (waves.ti,),
                 "rayleigh/rotated_ti": (waves.rotated_ti,),
                 "stoneley/iso_pair": (waves.soft, waves.hard)}
    return [(kind, m, eta_hat, *bd._tau_limit(m, workloads.NU, eta_hat)[::-1])
            for kind, eta_hat in ops for m in materials[kind]]


def surface_solves() -> list:
    """The run of each operation of round 0 of surface_waves at SEED, in the
    round's order."""
    with tempfile.TemporaryDirectory() as workdir:
        waves = workloads.SurfaceWaves(SEED, workdir)
        waves.setup()
    return [op.run for op in waves.round(0)]


def z_builds(solves: list) -> int:
    """The z builds the solves make, counted at the z function that each
    root search (boundary._surface_wave_bisect) takes."""
    builds, real = [], bd._surface_wave_bisect

    def counting(zfun, tau_eta):
        return real(lambda t: builds.append(t) or zfun(t), tau_eta)

    bd._surface_wave_bisect = counting
    try:
        for solve in solves:
            solve()
    finally:
        bd._surface_wave_bisect = real
    return len(builds)


def z_probe_floor(a, t: float):
    """z of the polynomial a moved to tau = t, an elliptic frame, from the z
    probe's LAPACK and matmul calls alone (`_outgoing_z(a.with_tau(t))`, bit
    for bit), with the work whose results the probe only checks: cond(X1),
    the eigenvalues of Q and Q# and lambda_min of z."""
    core = a.core
    s6 = core.stroh.copy()
    s6[3:, :3] -= fz._a2(core.l_eta, a.rho * t ** 2)
    t6, _, _, z6, _, _ = _lapack.zgees(lambda x: None, s6, lwork=_lapack.ZGEES_LWORK)
    t6, z6, *_ = _lapack.ztrsen(t6.diagonal().imag > 0, t6, z6, job="N")
    x1 = z6[:3, :3]
    _lapack.svdvals(x1)
    q = x1 @ t6[:3, :3] @ _lapack.inv(x1)
    a0_q = core.a0 @ q
    _lapack.eigvals(np.array((q, -(a0_q + core.a1_sym) @ core.a0inv)))
    z = -1j * (a0_q + a.a1)
    _lapack.eigvalsh(0.5 * (z + z.conj().T))
    return z


def _by_material(chunk: list) -> list:
    """(material, frames) stacks of a chunk of pairs, in order."""
    stacks = []
    for _, m, frame, _ in chunk:
        if stacks and stacks[-1][0] is m:
            stacks[-1][1].append(frame)
        else:
            stacks.append((m, [frame]))
    return stacks


def stages(pairs: list, probes: list, solves: list) -> list:
    """(name, one-frame calls, stacked calls): each a list of zero-argument
    callables that together cover every pair, every probe polynomial, or
    every surface-wave solve, once."""
    polys = [fz.boundary_polynomial(m, frame) for _, m, frame, _ in pairs]
    classes = [fz.classify_spectrum(a) for a in polys]
    facts = [fz.factorize(a, classification=c) for a, c in zip(polys, classes)]
    chunks = [slice(k, k + STACK) for k in range(0, len(pairs), STACK)]
    taus = [a.frame.tau for a in polys]
    return [
        ("polynomial",
         [lambda m=m, f=frame: fz.boundary_polynomial(m, f) for _, m, frame, _ in pairs],
         [lambda c=c: fz._polynomial_stacks(_by_material(pairs[c])) for c in chunks]),
        ("classification",
         [lambda a=a: fz.classify_spectrum(a) for a in polys],
         [lambda c=c: fz._classify(polys[c]) for c in chunks]),
        ("factorization",
         [lambda a=a, c=c: fz.factorize(a, classification=c) for a, c in zip(polys, classes)],
         [lambda c=c: fz._factorize(polys[c], classes[c], "outgoing", taus[c])
          for c in chunks]),
        ("projectors",
         [lambda f=f: imp.mode_projectors(f) for f in facts],
         [lambda c=c: imp._mode_projectors(facts[c]) for c in chunks]),
        ("frame_sweep op",
         [workloads.FrameSweep._op(cls, m, frame, region, 0).run
          for cls, m, frame, region in pairs],
         None),
        ("z probe",
         [lambda a=a, t=-0.9 * tau_eta: bd._outgoing_z(a.with_tau(t))
          for _, _, _, a, tau_eta in probes],
         None),
        ("z probe floor",
         [lambda a=a, t=-0.9 * tau_eta: z_probe_floor(a, t) for _, _, _, a, tau_eta in probes],
         None),
        ("spectrum probe",
         [lambda a=a, t=-0.9 * tau_eta: bd._fully_evanescent(a.with_tau(t))
          for _, _, _, a, tau_eta in probes],
         None),
        ("surface solve", solves, None),
    ]


def _per_call_us(calls: list, n: int) -> float:
    start = time.perf_counter()
    for call in calls:
        call()
    return 1e6 * (time.perf_counter() - start) / n


def measure(pairs: list, probes: list, solves: list, repeats: int) -> list:
    """(name, median us per pair, probe or solve alone, median us per entry
    of a stack or None)."""
    table = stages(pairs, probes, solves)
    times = {name: ([], []) for name, _, _ in table}
    for _ in range(repeats):
        for name, alone, stacked in table:
            times[name][0].append(_per_call_us(alone, len(alone)))
            if stacked is not None:
                times[name][1].append(_per_call_us(stacked, len(pairs)))
    return [(name, statistics.median(times[name][0]),
             statistics.median(times[name][1]) if stacked is not None else None)
            for name, _, stacked in table]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--repeats", type=int, default=21)
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    pairs, probes, solves = frame_pairs(), probe_polynomials(), surface_solves()
    rows = measure(pairs, probes, solves, args.repeats)
    print(f"seed {SEED}, {len(pairs)} frames, {len(probes)} probe polynomials, "
          f"{len(solves)} surface-wave solves, median of {args.repeats} repeats, us")
    print(f"{'stage':16s} {'n = 1':>10s} {f'per entry of {STACK}':>18s}")
    for name, alone, stacked in rows:
        print(f"{name:16s} {alone:10.1f} "
              f"{'-' if stacked is None else f'{stacked:.1f}':>18s}")
    alone = {name: us for name, us, _ in rows}
    print(f"z probe over its floor: {alone['z probe'] - alone['z probe floor']:.1f} us")
    print(f"z builds per surface solve: {z_builds(solves) / len(solves):.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
