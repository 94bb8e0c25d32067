"""tools/stage_costs.py: its frames are frame_sweep's, and it runs and prints
its table (one repeat, as a smoke test)."""
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


def test_one_repeat_prints_every_stage():
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "stage_costs.py"), "--repeats", "1"],
                         capture_output=True, text=True, check=True).stdout.splitlines()
    assert out[0] == "seed 1, 48 frames, median of 1 repeats, us"
    assert out[1].split() == ["stage", "n", "=", "1", "per", "entry", "of", "16"]
    rows = {line[:16].strip(): line[16:].split() for line in out[2:]}
    assert list(rows) == ["polynomial", "classification", "factorization", "projectors",
                          "frame_sweep op"]
    for name, (alone, stacked) in rows.items():
        assert float(alone) > 0
        assert stacked == "-" if name == "frame_sweep op" else float(stacked) > 0
