"""Start-up time and peak memory of fresh elaswave processes.

    python3 tools/cold_start.py [--runs 9]

Each run starts one fresh interpreter per command, with this checkout's src/
first on its path and one BLAS thread (as bench/run.py runs):

  import     python -c "import elaswave.cli"
  impedance  python -m elaswave.cli impedance on an isotropic material
  rayleigh   python -m elaswave.cli rayleigh on it
  trace      python -m elaswave.cli trace --max-events 64 on it, as one layer
             over a stiffer isotropic half-space

The commands take turns within a run, so that a busy machine's drift falls
on all of them.  The material and stack files go to a temporary directory.
For each command the tool prints the median and quartiles of the wall time
from start to exit and of the child's peak resident set size (ru_maxrss from
os.wait4; Linux counts it in kB).  A child that exits non-zero stops the run
with its standard error.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def _iso(name: str, lam: float, mu: float, rho: float) -> dict:
    return {"name": name, "density": rho,
            "stiffness": {"type": "isotropic", "lambda": lam, "mu": mu}}


ISO = _iso("iso", 2.0, 1.0, 1.0)
FILES = {
    "iso.json": ISO,
    "stack.json": {"layers": [{"material": ISO, "thickness": 1.0}],
                   "halfspace": _iso("halfspace", 9.0, 5.0, 2.5)},
}
CLI = [sys.executable, "-m", "elaswave.cli"]
COMMANDS = {
    "import": [sys.executable, "-c", "import elaswave.cli"],
    "impedance": CLI + ["impedance", "--material", "iso.json", "--eta", "1", "0",
                        "--tau", "-0.5"],
    "rayleigh": CLI + ["rayleigh", "--material", "iso.json", "--eta", "1", "0"],
    "trace": CLI + ["trace", "--stack", "stack.json", "--eta", "0.1", "0.05", "--tau", "-1",
                    "--max-events", "64"],
}


def run_once(argv: list[str], directory: str, env: dict) -> tuple[float, float]:
    """(wall seconds, peak RSS in MB) of one child running argv in directory."""
    start = time.perf_counter()
    with subprocess.Popen(argv, cwd=directory, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE) as proc:
        err = proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n{err.decode()}")
    return wall, usage.ru_maxrss / 1024.0


def summary(values: list[float]) -> str:
    """median [first quartile, third quartile]"""
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"{q2:7.1f} [{q1:.1f}, {q3:.1f}]"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=9,
                        help="fresh processes per command (at least 2)")
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2")
    env = dict(os.environ, **dict.fromkeys(THREAD_VARS, "1"),
               PYTHONPATH=os.pathsep.join(filter(None, (os.path.join(ROOT, "src"),
                                                        os.environ.get("PYTHONPATH")))))
    walls = {name: [] for name in COMMANDS}
    rss = {name: [] for name in COMMANDS}
    with tempfile.TemporaryDirectory() as directory:
        for fname, doc in FILES.items():
            with open(os.path.join(directory, fname), "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        for _ in range(args.runs):
            for name, argv in COMMANDS.items():
                wall, peak = run_once(argv, directory, env)
                walls[name].append(1e3 * wall)
                rss[name].append(peak)
    print(f"{args.runs} runs per command, Python {sys.version.split()[0]}, {ROOT}")
    print(f"{'command':<10} {'wall ms: median [quartiles]':<30} peak RSS MB: median [quartiles]")
    for name in COMMANDS:
        print(f"{name:<10} {summary(walls[name]):<30} {summary(rss[name])}")


if __name__ == "__main__":
    main()
