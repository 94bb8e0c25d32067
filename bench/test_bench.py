"""Tests of the benchmark itself: output contract, exact counts, neutral tracing.

    python3 -m pytest -q bench/test_bench.py
"""
import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import workloads
from tracer import Tracer

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _bench(*args, cwd=run.ROOT):
    proc = subprocess.run([sys.executable, os.path.join("bench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_metric_names_match_benchmark_json():
    assert list(run.END_TO_END) == [m["name"] for m in SPEC["end_to_end"]]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_result_line_contract(trace):
    proc = _bench("--workload", "surface_waves", "--seed", "5", "--seconds", "1",
                  "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    want = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in want}
    for m in want:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "frame_sweep", "--seed", "1", "--seconds", "1",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.fixture()
def small_layered(monkeypatch):
    """Two 64-event traces instead of the full round, to keep the test short."""
    monkeypatch.setattr(workloads.LayeredTrace, "budgets", (64, 64))


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_counts_repeat_exactly(name, small_layered):
    first = run.run_traced(name, 11)["extra"]["all_layers"]
    second = run.run_traced(name, 11)["extra"]["all_layers"]
    counts = {k for k in first if k.endswith(".calls") or k.endswith("_ratio")
              or "_per_" in k or k == "cli.output_bytes"}
    assert counts
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert first["factorization.factorize.calls"] > 0


def test_frame_sweep_factorizations_are_distinct():
    layers = run.run_traced("frame_sweep", 3)["extra"]["all_layers"]
    assert layers["factorization.distinct_ratio"] == 1.0


def test_tracing_leaves_cli_output_unchanged(tmp_path):
    from elaswave import boundary, factorization

    original = factorization.factorize
    workloads.write_cli_files(str(tmp_path))
    commands = [argv for variants in workloads.CLI_COMMANDS.values() for argv in variants]
    plain = [workloads.run_cli(argv, str(tmp_path)) for argv in commands]
    tracer = Tracer()
    tracer.install()
    try:
        assert boundary.factorize is not original
        tracer.recording = True
        traced = [workloads.run_cli(argv, str(tmp_path)) for argv in commands]
        tracer.recording = False
    finally:
        tracer.uninstall()
    assert boundary.factorize is original and factorization.factorize is original
    assert traced == plain
    assert all(code == 0 for code, _, _ in plain)
    assert tracer.layer_metrics(len(commands))["cli.run.calls"] == 1.0


def test_goldens_reproduce(tmp_path):
    workloads.write_cli_files(str(tmp_path))
    for command, variants in workloads.CLI_COMMANDS.items():
        for v, argv in enumerate(variants):
            code, out, err = workloads.run_cli(argv, str(tmp_path))
            assert code == 0, err
            path = os.path.join(workloads.GOLDEN_DIR, workloads.golden_name(command, v))
            with open(path, encoding="utf-8") as fh:
                assert workloads.compare_to_golden(out, fh.read()) <= 1e-10


def test_compare_to_golden_catches_differences():
    golden = '{"a": "1.0000000000000000", "label": "mixed"}'
    assert workloads.compare_to_golden('{"a": "1.00000000000001", "label": "mixed"}',
                                       golden) < 1e-10
    with pytest.raises(workloads.CheckFailed):
        workloads.compare_to_golden('{"a": "1.000001", "label": "mixed"}', golden)
    with pytest.raises(workloads.CheckFailed):
        workloads.compare_to_golden('{"a": "1.0", "label": "elliptic"}', golden)
    # Small fields are held to a tight tolerance; roundoff zeros may drift.
    flux = "time,flux\n2.5,1.9500000000000000e-08\n"
    with pytest.raises(workloads.CheckFailed):       # 0.5 % off a 2e-8 flux
        workloads.compare_to_golden("time,flux\n2.5,1.96e-08\n", flux)
    assert workloads.compare_to_golden("time,flux\n2.5,1.9500000000001e-08\n", flux) <= 1e-10
    zero = '{"im": "-8.2503029855269964e-17"}'
    assert workloads.compare_to_golden('{"im": "3.1e-17"}', zero) <= 1e-10


def test_tail_percentile():
    durations = [float(i) for i in range(1, 101)]
    value, pct = run.tail(durations)
    assert value == 90.0 and pct == 90.0
