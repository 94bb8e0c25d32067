"""The summary of tools/ab_bench.py on canned bench/run.py result lines."""
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.append(str(ROOT / "tools"))
import ab_bench  # noqa: E402   tools/ab_bench.py

METRICS = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def result_line(ops_per_s, setup_s=0.0004, failed=0) -> str:
    """A last line of bench/run.py's standard output."""
    values = {"setup_s": setup_s, "ops_per_s": ops_per_s, "op_p50_ms": 1000.0 / ops_per_s,
              "peak_rss_mb": 55.0}
    return json.dumps({"correct": failed == 0, "attempted": 900, "failed": failed,
                       "metrics": {name: {"value": value, "unit": "?"}
                                   for name, value in values.items()}})


def summary(ref_ops, new_ops, **new_kwargs) -> dict:
    """Metric name (or "pairs" and "pair N" for the other lines) -> its summary line."""
    ref = [json.loads(result_line(v)) for v in ref_ops]
    new = [json.loads(result_line(v, **new_kwargs)) for v in new_ops]
    lines = ab_bench.summarize(ref, new, METRICS)
    return {line.split(":")[0].split(" (")[0]: line for line in lines}


REF = [270.0, 272.0, 268.0, 275.0, 271.0, 269.0, 273.0, 270.0, 274.0, 272.0]


def test_gain_in_every_pair():
    lines = summary(REF, [v * 1.1 for v in REF])
    assert "10 pairs, REF against the working tree" in lines
    ops = lines["ops_per_s"]
    assert "new won 10 of 10 pairs (0 ties)" in ops and "gain rule holds" in ops
    assert "REF 271.5 [270, 272.75]" in ops and "change +10.0 %" in ops
    # op_p50_ms falls, and lower is better
    assert "gain rule holds" in lines["op_p50_ms"]
    # equal values: every pair a tie, no gain
    for name in ("setup_s", "peak_rss_mb"):
        assert "new won 0 of 10 pairs (10 ties)" in lines[name]
        assert "gain rule does not hold" in lines[name]


@pytest.mark.parametrize("n_lost, holds", [(0, True), (1, True), (2, False)])
def test_nine_of_ten(n_lost, holds):
    new = [v * 1.1 for v in REF]
    new[:n_lost] = [v * 0.99 for v in REF[:n_lost]]
    ops = summary(REF, new)["ops_per_s"]
    assert f"new won {10 - n_lost} of 10 pairs" in ops
    assert ("gain rule holds" in ops) is holds


def test_tie_counts_for_neither_side():
    new = [v * 1.1 for v in REF]
    new[0] = REF[0]
    ops = summary(REF, new)["ops_per_s"]
    assert "new won 9 of 10 pairs (1 ties)" in ops and "gain rule holds" in ops


def test_fewer_than_ten_pairs():
    ops = summary(REF[:9], [v * 1.1 for v in REF[:9]])["ops_per_s"]
    assert "new won 9 of 9 pairs" in ops and "gain rule does not hold" in ops


def test_gain_within_the_spread():
    # every pair won, but the median gain (1.0) is below REF's IQR (2.0)
    ref = [270.0, 272.0] * 5
    ops = summary(ref, [v + 1.0 for v in ref])["ops_per_s"]
    assert "new won 10 of 10 pairs" in ops and "gain rule does not hold" in ops
    assert "median gain 1 against REF's IQR 2" in ops


def test_failed_runs_are_reported():
    lines = ab_bench.summarize([json.loads(result_line(v)) for v in REF[:2]],
                               [json.loads(result_line(v, failed=3)) for v in REF[:2]],
                               METRICS)
    assert "pair 1: new run incorrect, 3 of 900 operations failed" in lines
    assert "pair 2: new run incorrect, 3 of 900 operations failed" in lines


PER_LAYER = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]


def traced_line(self_ms, calls=12, failed=0) -> str:
    """A last line of bench/run.py --trace 1: every per_layer metric reads
    `calls` if it is a count and `self_ms` otherwise."""
    return json.dumps({"correct": failed == 0, "attempted": 384, "failed": failed,
                       "metrics": {m["name"]: {"value": calls if m["unit"] == "count"
                                               else self_ms, "unit": m["unit"]}
                                   for m in PER_LAYER}})


def traced_summary(ref, new) -> dict:
    lines = ab_bench.summarize_traced([json.loads(line) for line in ref],
                                      [json.loads(line) for line in new], PER_LAYER)
    return {line.split(":")[0].split(" (")[0]: line for line in lines}


def test_traced_self_times_and_counts():
    ref = [traced_line(v) for v in (2.0, 2.2, 2.1, 2.4, 2.3)]
    new = [traced_line(v) for v in (1.5, 1.7, 1.6, 2.5, 1.4)]
    lines = traced_summary(ref, new)
    assert "5 traced pairs, REF against the working tree" in lines
    self_ms = lines["factorization.factorize.self_ms"]
    assert "(ms, lower is better)" in self_ms
    assert "REF 2.2 [2.1, 2.3], new 1.6 [1.5, 1.7]" in self_ms
    assert "new won 4 of 5 pairs (0 ties)" in self_ms
    assert "gain rule" not in self_ms and "repeats" not in self_ms
    calls = lines["factorization.factorize.calls"]
    assert "(count, lower is better)" in calls
    assert "new won 0 of 5 pairs (5 ties); repeats exactly" in calls
    # every per_layer metric of BENCHMARK.json has its line
    assert {m["name"] for m in PER_LAYER} <= set(lines)


def test_traced_counts_that_differ():
    ref = [traced_line(2.0, calls=12) for _ in range(3)]
    new = [traced_line(2.0, calls=12), traced_line(2.0, calls=11), traced_line(2.0, calls=12)]
    calls = traced_summary(ref, new)["boundary.tau_limit.calls"]
    assert "new won 1 of 3 pairs (2 ties)" in calls
    assert "DIFFERS: REF [12], new [11, 12]" in calls


def test_traced_failed_runs_are_reported():
    lines = ab_bench.summarize_traced([json.loads(traced_line(2.0))] * 2,
                                      [json.loads(traced_line(2.0, failed=1))] * 2, PER_LAYER)
    assert "pair 2: new run incorrect, 1 of 384 operations failed" in lines
