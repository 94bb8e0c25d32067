"""tools/output_digest.py: its surface_wave_probes line sees where a
surface-wave search probes, not only how many probes it takes."""
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.append(str(ROOT / "tools"))
import output_digest  # noqa: E402   tools/output_digest.py

from elaswave import boundary  # noqa: E402


def test_probe_line_sees_a_moved_probe(monkeypatch):
    # The interior start's first probe moved from u = 0.3 to 0.3000001: each
    # seed-0 surface_waves solve probes as many times as before, and the
    # line's hash, and each solve's digest of its Schur inputs, change.
    with tempfile.TemporaryDirectory() as directory:
        solves = output_digest.surface_wave_solves(0, directory)
    _, schurs, _, _ = output_digest.probe_counts(solves)
    monkeypatch.setattr(boundary, "START_U", (0.3000001, *boundary.START_U[1:]))
    _, moved, _, _ = output_digest.probe_counts(solves)
    assert [n for n, _ in moved] == [n for n, _ in schurs]
    assert all(got != want for (_, got), (_, want) in zip(moved, schurs, strict=True))
    assert output_digest._hash(moved) != output_digest._hash(schurs)
