"""A fixed reference kernel that measures how fast the machine is right now.

On a shared machine the speed of small-matrix numpy code drifts by up to 2x
over tens of seconds, far more than the changes the benchmark must resolve.
The kernel below does the same kind of work as elaswave (6x6 eigenvalues,
3x3 inverses and SVDs, einsum contractions, short Python loops over the
results) on fixed inputs, and never calls elaswave.  Timed between the
operations of a run, it tracks the drift: over 10 s windows the ratio of
operation time to kernel time varied by 2-7 % (interquartile range over
median) where operation time alone varied by 18-21 %.

`Clock.factor` rescales an operation time to the speed at which one kernel
call takes REFERENCE_S, using the kernel samples taken within WINDOW_S of
the operation.
"""
from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

# Median time of one kernel call on the two-core x86-64 machine the benchmark
# was written on, single-threaded OpenBLAS, in its fast state.
REFERENCE_S = 0.004
WINDOW_S = 1.0

_rng = np.random.default_rng(2021)
_M6 = _rng.standard_normal((6, 6))
_M3 = _rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
_C = _rng.standard_normal((3, 3, 3, 3))
_E = _rng.standard_normal(3)


def kernel() -> float:
    total = 0.0
    for _ in range(30):
        vals = np.linalg.eigvals(_M6)
        order = sorted(range(6), key=lambda i: (vals[i].real, vals[i].imag))
        groups = [[vals[order[0]]]]
        for i in order[1:]:
            if abs(vals[i] - sum(groups[-1]) / len(groups[-1])) < 1e-8:
                groups[-1].append(vals[i])
            else:
                groups.append([vals[i]])
        u, s, vh = np.linalg.svd(_M3 + 0.1 * len(groups) * np.eye(3))
        q = np.linalg.inv(_M3) @ (u * s) @ vh
        q = q + np.einsum("ijkm,j,m->ik", _C, _E, _E)
        total += float(format(float(q[0, 0]), ".17g"))
    for _ in range(60):
        np.linalg.eigvals(_M6)
        np.linalg.inv(_M3)
        np.linalg.svd(_M3)
        np.einsum("ijkm,j,m->ik", _C, _E, _E)
        total += float((_M3 @ _M3)[0, 0])
    return total


class Clock:
    """Kernel samples taken during a run, and the corrections they imply.

    Samples are taken between operations, enough to keep kernel time at
    SHARE of operation time, so a long operation is followed by many samples
    and a stretch of short ones by one sample every tenth of a second or so.
    """

    SHARE = 0.04

    def __init__(self):
        self.times: list[float] = []      # midpoint of each sample
        self.samples: list[float] = []    # kernel duration
        self.op_s = 0.0
        self.kernel_s = 0.0

    def sample(self) -> None:
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.times.append(0.5 * (start + end))
        self.samples.append(end - start)
        self.kernel_s += end - start

    def after_op(self, seconds: float) -> None:
        self.op_s += seconds
        while self.kernel_s < self.SHARE * self.op_s:
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_S over the median kernel time within WINDOW_S of [start, end]."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        if lo == hi:                       # no sample that close: take the nearest
            i = min(range(len(self.times)),
                    key=lambda j: min(abs(self.times[j] - start), abs(self.times[j] - end)))
            lo, hi = i, i + 1
        return REFERENCE_S / statistics.median(self.samples[lo:hi])
