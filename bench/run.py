"""elaswave benchmark: one workload, one process, one thread, one caller.

    python3 bench/run.py --workload frame_sweep --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

The untraced run (--trace 0) runs whole rounds of operations in a closed loop
until --seconds of wall time have passed, times the workload's set-up
SETUP_SAMPLES times along the way, and checks every output.  It prints the end-to-end metrics by
name with their units, with timings rescaled by a reference kernel sampled
during the run (see reference.py) and the raw timings beside them.

The traced run (--trace 1) runs a fixed number of rounds, each operation once
untraced and once with every public elaswave function wrapped (see
tracer.py), and prints per-layer counts and self times per operation.  The
amount of work is fixed so that counts repeat exactly for a seed.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  A fuller record, with the environment, goes
to .bench_out/ at the root of the checkout.  See README.md beside this file.
"""
from __future__ import annotations

import os

# One thread: the operations are small dense matrices, and a second BLAS
# thread on a shared two-core machine only adds noise.  Must precede numpy.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
if __name__ == "__main__":
    for _var in THREAD_VARS:
        os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

from tracer import LAYERS, Tracer  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOAD_NAMES = ("frame_sweep", "surface_waves", "layered_trace", "cli_session")
SETUP_SAMPLES = 25
TAIL_BEYOND = 10

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "peak_rss_mb": "MB",
}
# Printed and recorded but not in BENCHMARK.json: too noisy to gate on (README).
UNGATED = {"op_tail_ms": "ms"}
_FUNCS = {
    "factorization": ("factorize", "classify_spectrum", "stroh", "kernel_basis",
                      "boundary_polynomial"),
    "impedance": ("mode_projectors",),
    "scatter": ("reflect_free_surface", "transmit_interface"),
    "boundary": ("tau_limit", "rayleigh_speed", "stoneley_speed"),
}
PER_LAYER = {f"{layer}.{fn}.{kind}": ("count" if kind == "calls" else "ms")
             for layer, fns in _FUNCS.items() for fn in fns
             for kind in ("calls", "self_ms")}
PER_LAYER.update({
    "factorization.distinct_ratio": "ratio",
    "scatter.factorize_per_call": "ratio",
    "layered.trace_plane_wave.self_ms": "ms",
    "layered.group_delay.calls": "count",
    "layered.factorize_per_event": "ratio",
    "boundary.factorize_per_solve": "ratio",
    "boundary.classify_per_tau_limit": "ratio",
    "cli.run.self_ms": "ms",
    "cli.output_bytes": "bytes",
    "acoustic.acoustic_tensor.calls": "count",
    "trace.overhead": "ratio",
})
PER_LAYER.update({f"{layer}.self_ms": "ms" for layer in LAYERS})


def _import_package():
    """Import elaswave from this checkout's src/, or exit 2 if it is absent."""
    if not os.path.isfile(os.path.join(SRC, "elaswave", "__init__.py")):
        sys.stderr.write(f"bench: no elaswave package under {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import elaswave
    import elaswave.cli  # noqa: F401  (imports every layer module)
    seconds = time.perf_counter() - start
    found = os.path.dirname(os.path.dirname(os.path.realpath(elaswave.__file__)))
    if found != os.path.realpath(SRC):
        sys.stderr.write(f"bench: elaswave imported from {elaswave.__file__}, not {SRC}\n")
        sys.exit(2)
    return seconds


IMPORT_S = _import_package()

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import workloads  # noqa: E402
from reference import REFERENCE_S, Clock  # noqa: E402


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sblas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": f"{blas.get('name')} {blas.get('version')}",
        "scipy_blas": f"{sblas.get('name')} {sblas.get('version')}",
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


# --- measurement -------------------------------------------------------------

class Ledger:
    """Operation times, failures and the worst oracle deviation of a run."""

    def __init__(self):
        self.times: list[tuple[float, float]] = []     # (start, end) of each op
        self.failed = 0
        self.max_rel_err = 0.0
        self.failures: list[str] = []

    @property
    def durations(self) -> list[float]:
        return [end - start for start, end in self.times]

    def run(self, op, timed_call=None) -> float:
        """Time one operation, then check its output; return its duration."""
        call = timed_call or op.run
        start = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # a typed library error is a failed operation
            self.times.append((start, time.perf_counter()))
            self._fail(op, f"{type(exc).__name__}: {exc}")
            return self.times[-1][1] - start
        end = time.perf_counter()
        self.times.append((start, end))
        try:
            err = op.check(result)
        except Exception as exc:  # CheckFailed, or a check that could not run
            self._fail(op, f"{type(exc).__name__}: {exc}")
            return end - start
        if not np.isfinite(err):
            self._fail(op, f"non-finite deviation {err}")
        else:
            self.max_rel_err = max(self.max_rel_err, float(err))
        return end - start

    def _fail(self, op, msg: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{op.kind}: {msg}")


def timed_setup(wl) -> tuple[float, float]:
    """(start, end) of one set-up of the workload's elaswave objects."""
    start = time.perf_counter()
    wl.setup()
    return start, time.perf_counter()


def _close(wl) -> None:
    if hasattr(wl, "close"):
        wl.close()


def tail(durations: list[float]) -> tuple[float, float]:
    """Highest percentile with at least TAIL_BEYOND samples beyond it."""
    ordered = sorted(durations)
    n = len(ordered)
    rank = max(n - TAIL_BEYOND, 1)        # 1-based; TAIL_BEYOND samples lie above
    return ordered[rank - 1], 100.0 * rank / n


def timing_metrics(op_s: list[float], setup_s: list[float]) -> dict:
    tail_s, _ = tail(op_s)
    return {
        "setup_s": statistics.median(setup_s),
        "ops_per_s": len(op_s) / sum(op_s),
        "op_p50_ms": 1e3 * statistics.median(op_s),
        "op_tail_ms": 1e3 * tail_s,
    }


def run_untraced(name: str, seed: int, seconds: float) -> dict:
    """Whole rounds until `seconds` of wall time have passed.

    Inputs are generated once, untimed.  Set-up (building the elaswave
    objects from them) is timed SETUP_SAMPLES times, spread evenly over the
    run, so that its median sees the same machine as the operations do.
    Reference kernel samples are taken between operations; timings are
    reported both raw and rescaled to the reference speed (see reference.py).
    """
    clock = Clock()
    clock.sample()
    wl = workloads.WORKLOADS[name](seed, OUT_DIR)
    try:
        setups = [timed_setup(wl)]
        wl.round(0)[0].run()               # warm-up, untimed and unchecked
        ledger = Ledger()
        rounds = 0
        start = time.perf_counter()
        elapsed = 0.0
        while rounds == 0 or elapsed < seconds:
            for op in wl.round(rounds):
                clock.after_op(ledger.run(op))
            rounds += 1
            elapsed = time.perf_counter() - start
            while (len(setups) < SETUP_SAMPLES
                   and (elapsed >= seconds or
                        elapsed >= len(setups) * seconds / SETUP_SAMPLES)):
                setups.append(timed_setup(wl))
                clock.sample()
    finally:
        _close(wl)
    raw_ops = ledger.durations
    raw_setup = [end - start for start, end in setups]
    metrics = timing_metrics(
        [d * clock.factor(*t) for d, t in zip(raw_ops, ledger.times)],
        [d * clock.factor(*t) for d, t in zip(raw_setup, setups)])
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    q = statistics.quantiles(clock.samples, n=4)
    return {
        "metrics": metrics, "ledger": ledger, "rounds": rounds,
        "extra": {"raw_metrics": timing_metrics(raw_ops, raw_setup),
                  "tail_percentile": tail(raw_ops)[1], "tail_beyond": TAIL_BEYOND,
                  "setup_samples_s": raw_setup,
                  "reference": {"reference_s": REFERENCE_S, "samples": len(clock.samples),
                                "median_s": statistics.median(clock.samples),
                                "quartiles_s": [q[0], q[2]]}},
    }


def run_traced(name: str, seed: int) -> dict:
    """Each operation runs untraced, then traced, so drift cancels in the overhead."""
    wl = workloads.WORKLOADS[name](seed, OUT_DIR)
    wl.setup()
    tracer = Tracer()
    ledger = Ledger()
    plain_s = traced_s = 0.0
    n_ops = 0
    try:
        rounds = [wl.round(k) for k in range(wl.trace_rounds)]
        rounds[0][0].run()                 # warm-up, untimed and unchecked
        tracer.install()
        try:
            for op in (op for ops in rounds for op in ops):
                def call(op=op):
                    tracer.recording = True
                    try:
                        return tracer.span(f"op.{op.kind}", op.run)
                    finally:
                        tracer.recording = False
                plain_s += ledger.run(op)
                traced_s += ledger.run(op, call)
                n_ops += 1
        finally:
            tracer.uninstall()
    finally:
        _close(wl)
    layers = tracer.layer_metrics(n_ops)
    layers["cli.output_bytes"] = getattr(wl, "output_bytes", 0) / (2 * n_ops)
    layers["trace.overhead"] = traced_s / plain_s
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"spans-{name}-seed{seed}.json")
    tracer.dump(spans_path)
    return {
        "metrics": {k: layers[k] for k in PER_LAYER},
        "ledger": ledger, "rounds": wl.trace_rounds,
        "extra": {"all_layers": layers, "spans_file": os.path.relpath(spans_path, ROOT),
                  "spans": len(tracer.spans)},
    }


# --- reporting ---------------------------------------------------------------

def report(name: str, args, res: dict) -> dict:
    ledger = res["ledger"]
    attempted = len(ledger.durations)
    gated = PER_LAYER if args.trace else END_TO_END
    units = {**gated, **UNGATED}
    env = environment()
    print(f"workload {name}  seed {args.seed}  trace {args.trace}  "
          f"rounds {res['rounds']}  ops {attempted}")
    print("environment " + json.dumps(env, sort_keys=True))
    print(f"import_s {IMPORT_S:.6f} s")
    raw = res["extra"].get("raw_metrics", {})
    if raw:
        ref = res["extra"]["reference"]
        print(f"reference kernel median {ref['median_s']:.6f} s over {ref['samples']} "
              f"samples; timings rescaled to {REFERENCE_S} s (raw in brackets)")
    for key, value in res["metrics"].items():
        line = f"{key:40s} {value:.6g} {units[key]}"
        if key in raw:
            line += f"  [raw {raw[key]:.6g}]"
        if key == "op_tail_ms":
            line += (f"  (p{res['extra']['tail_percentile']:.2f} of {attempted} ops, "
                     f"{TAIL_BEYOND} beyond)")
        print(line)
    error_rate = ledger.failed / attempted
    print(f"{'error_rate':40s} {error_rate:.6g} ({ledger.failed} of {attempted} failed)")
    print(f"{'max_rel_err':40s} {ledger.max_rel_err:.3e}")
    for failure in ledger.failures:
        print(f"FAILED {failure}")
    result = {
        "correct": ledger.failed == 0,
        "attempted": attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": res["metrics"][k], "unit": u} for k, u in gated.items()},
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    record = dict(result, workload=name, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, measured=res["metrics"], environment=env,
                  import_s=IMPORT_S,
                  error_rate=error_rate, max_rel_err=ledger.max_rel_err,
                  failures=ledger.failures, rounds=res["rounds"], **res["extra"])
    path = os.path.join(OUT_DIR, f"result-{name}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return result


def run_all(args) -> int:
    """Each workload in its own process, then one summary table."""
    records = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        path = os.path.join(OUT_DIR, f"result-{name}-seed{args.seed}-trace{args.trace}.json")
        with open(path, encoding="utf-8") as fh:
            records[name] = json.load(fh)
    print()
    print(f"{'metric':40s}" + "".join(f"{n:>16s}" for n in WORKLOAD_NAMES))
    for key in PER_LAYER if args.trace else {**END_TO_END, **UNGATED}:
        print(f"{key:40s}" + "".join(
            f"{records[n]['measured'][key]:16.6g}" for n in WORKLOAD_NAMES))
    extra = ["error_rate", "max_rel_err"] + ([] if args.trace else ["tail_percentile"])
    for key in extra:
        print(f"{key:40s}" + "".join(f"{records[n][key]:16.6g}" for n in WORKLOAD_NAMES))
    combined = {
        "correct": all(r["correct"] for r in records.values()),
        "attempted": sum(r["attempted"] for r in records.values()),
        "failed": sum(r["failed"] for r in records.values()),
        "metrics": {f"{n}.{k}": v for n, r in records.items()
                    for k, v in r["metrics"].items()},
    }
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    if args.trace:
        res = run_traced(args.workload, args.seed)
    else:
        res = run_untraced(args.workload, args.seed, args.seconds)
    print(json.dumps(report(args.workload, args, res)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
