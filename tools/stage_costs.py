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
impedance, mode_projectors and boundary.classify of one frame).  The stages
and the operation take turns within each repeat, so that a busy machine's
drift falls on all of them, and the tool prints the median over repeats of
each time in microseconds.  BLAS runs on one thread, as in bench/run.py.
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

from elaswave import factorization as fz  # noqa: E402
from elaswave import impedance as imp  # noqa: E402

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


def _by_material(chunk: list) -> list:
    """(material, frames) stacks of a chunk of pairs, in order."""
    stacks = []
    for _, m, frame, _ in chunk:
        if stacks and stacks[-1][0] is m:
            stacks[-1][1].append(frame)
        else:
            stacks.append((m, [frame]))
    return stacks


def stages(pairs: list) -> list:
    """(name, one-frame calls, stacked calls): each a list of zero-argument
    callables that together cover every pair once."""
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
    ]


def _per_pair_us(calls: list, n_pairs: int) -> float:
    start = time.perf_counter()
    for call in calls:
        call()
    return 1e6 * (time.perf_counter() - start) / n_pairs


def measure(pairs: list, repeats: int) -> list:
    """(name, median us per pair alone, median us per entry of a stack or None)."""
    table = stages(pairs)
    times = {name: ([], []) for name, _, _ in table}
    for _ in range(repeats):
        for name, alone, stacked in table:
            times[name][0].append(_per_pair_us(alone, len(pairs)))
            if stacked is not None:
                times[name][1].append(_per_pair_us(stacked, len(pairs)))
    return [(name, statistics.median(times[name][0]),
             statistics.median(times[name][1]) if stacked is not None else None)
            for name, _, stacked in table]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--repeats", type=int, default=21)
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    pairs = frame_pairs()
    rows = measure(pairs, args.repeats)
    print(f"seed {SEED}, {len(pairs)} frames, median of {args.repeats} repeats, us")
    print(f"{'stage':16s} {'n = 1':>10s} {f'per entry of {STACK}':>18s}")
    for name, alone, stacked in rows:
        print(f"{name:16s} {alone:10.1f} "
              f"{'-' if stacked is None else f'{stacked:.1f}':>18s}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
