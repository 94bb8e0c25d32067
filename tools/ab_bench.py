"""A/B benchmark: bench/run.py on a git revision against the working tree, in alternating pairs.

    python3 tools/ab_bench.py --workload layered_trace [--ref HEAD] [--pairs 10] [--seed 1]
    python3 tools/ab_bench.py --workload frame_sweep --trace [--pairs 5]

REF's committed files are unpacked into a temporary directory
(git_archive.py).  Each pair runs bench/run.py once in that checkout and once
in this one, each in a fresh process with the same workload, seed and
BENCHMARK.json's run length (run_seconds).  The side that runs first
alternates: REF in odd pairs, the working tree in even ones, so that the
machine drifting faster or slower falls on both sides alike.  Each run's
end-to-end metrics are printed as it ends.

Then, for every end-to-end metric of BENCHMARK.json, it prints each side's
median and quartiles, the pairs the working tree won (a tie counts for
neither side) and whether the gain rule holds: the working tree won at
least nine tenths of at least ten pairs, and its median is better than
REF's by more than REF's interquartile range.  A run that reports an
incorrect output or a failed operation is printed as such.

With --trace both sides run bench/run.py --trace 1, which counts the calls
of each traced elaswave function and times its self time over a fixed
amount of work, and the summary covers the per_layer metrics of
BENCHMARK.json instead: each side's median and quartiles, the pairs the
working tree won and the metric's direction, with no gain rule.  A count
(unit "count") must repeat exactly, so its line also says whether every run
of both sides read one value; self times are information only, to show
where a saving sits.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

import git_archive  # tools/git_archive.py

ROOT = git_archive.ROOT
MIN_PAIRS = 10
WIN_SHARE = 0.9


def run_bench(root: str, workload: str, seed: int, seconds: float, trace: bool = False) -> dict:
    """The JSON result, bench/run.py's last line of standard output, of one
    run in the checkout at root."""
    out = subprocess.run([sys.executable, os.path.join(root, "bench", "run.py"),
                          "--workload", workload, "--seed", str(seed),
                          "--seconds", str(seconds), "--trace", str(int(trace))],
                         cwd=root, check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def _quartiles(values: list) -> tuple:
    low, median, high = statistics.quantiles(values, n=4, method="inclusive")
    return low, median, high


def _incorrect(ref: list, new: list) -> list:
    """A line for each run that reports an incorrect output or a failed operation."""
    lines = []
    for n, (mine, theirs) in enumerate(zip(new, ref), 1):
        for side, result in (("REF", theirs), ("new", mine)):
            if not result["correct"] or result["failed"]:
                lines.append(f"pair {n}: {side} run incorrect, "
                             f"{result['failed']} of {result['attempted']} operations failed")
    return lines


def _compared(ref: list, new: list, metric: dict) -> tuple:
    """(REF's and the working tree's values, their quartiles, the pairs the
    working tree won, the ties and the text of both) for one metric."""
    name, sign = metric["name"], 1.0 if metric["better"] == "higher" else -1.0
    theirs = [r["metrics"][name]["value"] for r in ref]
    mine = [r["metrics"][name]["value"] for r in new]
    wins = sum(sign * (b - a) > 0 for a, b in zip(theirs, mine))
    ties = sum(a == b for a, b in zip(theirs, mine))
    (q1, m_ref, q3), (p1, m_new, p3) = _quartiles(theirs), _quartiles(mine)
    text = (f"{name} ({metric['unit']}, {metric['better']} is better): "
            f"REF {m_ref:.6g} [{q1:.6g}, {q3:.6g}], new {m_new:.6g} [{p1:.6g}, {p3:.6g}]")
    return theirs, mine, (q1, m_ref, q3), m_new, wins, ties, text


def summarize(ref: list, new: list, metrics: list) -> list:
    """Summary lines of paired results: ref[i] and new[i] are the JSON
    results of pair i, metrics the end-to-end entries of BENCHMARK.json
    (name, unit, better)."""
    lines = [f"{len(ref)} pairs, REF against the working tree (new)"] + _incorrect(ref, new)
    for metric in metrics:
        _, _, (q1, m_ref, q3), m_new, wins, ties, text = _compared(ref, new, metric)
        gain = (1.0 if metric["better"] == "higher" else -1.0) * (m_new - m_ref)
        holds = (len(ref) >= MIN_PAIRS and wins >= WIN_SHARE * len(ref) and gain > q3 - q1)
        lines.append(
            f"{text}, change {100.0 * (m_new - m_ref) / m_ref:+.1f} %; "
            f"new won {wins} of {len(ref)} pairs ({ties} ties); "
            f"gain rule {'holds' if holds else 'does not hold'} "
            f"(median gain {gain:.6g} against REF's IQR {q3 - q1:.6g})")
    return lines


def summarize_traced(ref: list, new: list, metrics: list) -> list:
    """Summary lines of paired traced results (bench/run.py --trace 1), for
    the per_layer entries of BENCHMARK.json: no gain rule, and a count says
    whether it read one value in every run of both sides."""
    lines = [f"{len(ref)} traced pairs, REF against the working tree (new)"]
    lines += _incorrect(ref, new)
    for metric in metrics:
        theirs, mine, _, _, wins, ties, text = _compared(ref, new, metric)
        line = f"{text}; new won {wins} of {len(ref)} pairs ({ties} ties)"
        if metric["unit"] == "count":
            line += ("; repeats exactly" if len(set(theirs + mine)) == 1
                     else f"; DIFFERS: REF {sorted(set(theirs))}, new {sorted(set(mine))}")
        lines.append(line)
    return lines


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--ref", default="HEAD", help="git revision to compare with")
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", action="store_true",
                        help="run both sides traced and summarize the per_layer metrics")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, for quartiles")
    ref, new = [], []
    with tempfile.TemporaryDirectory() as tree:
        git_archive.extract(args.ref, tree)
        sides = [("REF", tree, ref), ("new", ROOT, new)]
        for n in range(1, args.pairs + 1):
            for side, root, results in sides if n % 2 else sides[::-1]:
                results.append(run_bench(root, args.workload, args.seed, bench["run_seconds"],
                                         args.trace))
                print(f"pair {n} {side}: " + "  ".join(
                    f"{name} {m['value']:.6g}" for name, m in results[-1]["metrics"].items()),
                    flush=True)
    if args.trace:
        print("\n".join(summarize_traced(ref, new, bench["per_layer"])))
    else:
        print("\n".join(summarize(ref, new, bench["end_to_end"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
