"""tools/stage_costs.py: its frames are frame_sweep's, its probe polynomials
and solves surface_waves', and it runs and prints its table (one repeat, as a
smoke test)."""
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.append(str(ROOT / "tools"))
import stage_costs  # noqa: E402   tools/stage_costs.py
import workloads  # noqa: E402   bench/workloads.py, on the path stage_costs sets


def test_frames_are_round_zero_of_frame_sweep():
    # each pair's operation gives what the round's own operation at that place gives
    pairs = stage_costs.frame_pairs()
    with tempfile.TemporaryDirectory() as workdir:
        sweep = workloads.FrameSweep(stage_costs.SEED, workdir)
        sweep.setup()
    ops = sweep.round(0)
    assert len(pairs) == len(ops) == 48
    for (cls, m, frame, region), op in zip(pairs, ops):
        assert op.kind == f"{cls}/{region}"
        z, _, label = workloads.FrameSweep._op(cls, m, frame, region, 0).run()
        z_round, _, label_round = op.run()
        assert np.array_equal(z.z, z_round.z)
        assert label == label_round


def test_probes_are_round_zero_of_surface_waves():
    # each probe polynomial is the tau = -1 polynomial of an operation's
    # material at its azimuth: the round's own operation finds its tau_eta
    probes = stage_costs.probe_polynomials()
    with tempfile.TemporaryDirectory() as workdir:
        waves = workloads.SurfaceWaves(stage_costs.SEED, workdir)
        waves.setup()
    ops = waves.round(0)
    assert len(probes) == len(ops) + 1      # a Stoneley pair gives two
    by_op = iter(probes)
    for op in ops:
        result = op.run()
        mine = [next(by_op) for _ in range(2 if op.kind.startswith("stoneley") else 1)]
        assert all(kind == op.kind for kind, *_ in mine)
        assert result.tau_eta == min(tau_eta for *_, tau_eta in mine)
        for _, m, eta_hat, a, _ in mine:
            assert a.frame.tau == -1.0 and np.array_equal(a.frame.eta, eta_hat)


def test_solves_are_round_zero_of_surface_waves():
    # each solve gives what the round's own operation at that place gives
    solves = stage_costs.surface_solves()
    with tempfile.TemporaryDirectory() as workdir:
        waves = workloads.SurfaceWaves(stage_costs.SEED, workdir)
        waves.setup()
    ops = waves.round(0)
    assert len(solves) == len(ops) == 7
    for solve, op in zip(solves, ops):
        got, want = solve(), op.run()
        assert (got.tau_r, got.det_residual) == (want.tau_r, want.det_residual)


def test_z_builds_per_solve():
    # The z builds of each solve of rounds 0-5 of surface_waves at seed 1, by
    # kind: a solve's probes, with the root's z where no probe was at the
    # root.  Probing both ends first took 8 (Poisson), 9 (TI), 8.83 (rotated
    # TI, mean of 18) and 8 (the Stoneley pair): 363 builds, 8.64 per solve.
    # Starting inside the interval takes 6, 7, 7.11 and 7: 290 builds, 6.90
    # per solve; round 0, which the tool prints, takes 48 over 7 solves.
    with tempfile.TemporaryDirectory() as workdir:
        waves = workloads.SurfaceWaves(stage_costs.SEED, workdir)
        waves.setup()
    by_kind = {}
    for k in range(6):
        for op in waves.round(k):
            by_kind[op.kind] = by_kind.get(op.kind, 0) + stage_costs.z_builds([op.run])
    assert by_kind == {"rayleigh/poisson": 36, "rayleigh/ti": 84, "rayleigh/rotated_ti": 128,
                       "stoneley/iso_pair": 42}
    assert stage_costs.z_builds(stage_costs.surface_solves()) == 48


def test_one_repeat_prints_every_stage():
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "stage_costs.py"), "--repeats", "1"],
                         capture_output=True, text=True, check=True).stdout.splitlines()
    assert out[0] == ("seed 1, 48 frames, 8 probe polynomials, 7 surface-wave solves, "
                      "median of 1 repeats, us")
    assert out[1].split() == ["stage", "n", "=", "1", "per", "entry", "of", "16"]
    rows = {line[:16].strip(): line[16:].split() for line in out[2:-1]}
    assert list(rows) == ["polynomial", "classification", "factorization", "projectors",
                          "frame_sweep op", "z probe", "spectrum probe", "surface solve"]
    unstacked = ("frame_sweep op", "z probe", "spectrum probe", "surface solve")
    for name, (alone, stacked) in rows.items():
        assert float(alone) > 0
        assert stacked == "-" if name in unstacked else float(stacked) > 0
    assert out[-1] == "z builds per surface solve: 6.86"
