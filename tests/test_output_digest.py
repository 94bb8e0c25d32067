"""tools/output_digest.py: its surface_wave_probes line sees where a
surface-wave search probes, not only how many probes it takes, its laws
line sees the outgoing traces, which no CLI output prints, and its
lapack_ledger line sees arithmetic that leaves every output as it was."""
import dataclasses
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.append(str(ROOT / "tools"))
import numpy as np  # noqa: E402
import output_digest  # noqa: E402   tools/output_digest.py

from elaswave import boundary, layered, scatter  # noqa: E402


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


def flip_trace_row(law):
    """The law with the last bit of its + side's trace map T[0, 0] flipped."""
    side_maps = law.side_maps.copy()
    side_maps[0, 1].view(np.uint64)[0, 0] ^= 1
    return dataclasses.replace(law, side_maps=side_maps)


def test_law_line_sees_a_trace_row(monkeypatch):
    # Every law built with one entry of its + side's trace row moved by one
    # bit: the laws line changes, and no CLI line (reflect and trace run
    # these laws) does.
    def digests():
        with tempfile.TemporaryDirectory() as directory:
            cli = output_digest.cli_digests(directory)
            _, laws = output_digest.built_laws(lambda: output_digest.digest_trees(0, directory))
        return cli, output_digest.law_digest(laws, 0)

    cli, laws = digests()
    built = scatter._scatter_operators

    def flipped(law_sides):
        return [flip_trace_row(law) for law in built(law_sides)]

    monkeypatch.setattr(scatter, "_scatter_operators", flipped)
    monkeypatch.setattr(layered, "_scatter_operators", flipped)
    flipped_cli, flipped_laws = digests()
    assert flipped_cli == cli
    assert flipped_laws != laws


def test_ledger_line_sees_extra_arithmetic(monkeypatch):
    # lambda_min of each surface-wave z probe taken twice: every seed-0
    # surface_waves solve gives the same floats, and the ledger counts one
    # more eigvalsh call, of one entry, per z probe and nothing else
    with tempfile.TemporaryDirectory() as directory:
        solves = output_digest.surface_wave_solves(0, directory)
    (outcomes, _, _, _), ledger = output_digest.lapack_ledger(
        lambda: output_digest.probe_counts(solves))
    real, probes = boundary._lambda_min, []

    def twice(zmat):
        probes.append(real(zmat))
        return real(zmat)

    monkeypatch.setattr(boundary, "_lambda_min", twice)
    (again, _, _, _), doubled = output_digest.lapack_ledger(
        lambda: output_digest.probe_counts(solves))
    assert output_digest._hash(again) == output_digest._hash(outcomes)
    assert output_digest._hash(doubled) != output_digest._hash(ledger)
    assert doubled.pop("eigvalsh") == [n + len(probes) for n in ledger.pop("eigvalsh")]
    assert doubled == ledger


def test_moved_counts_name_what_moved():
    theirs, mine = "5 inv calls, 9 inv entries, 2 det calls", "5 inv calls, 11 inv entries, 3 det calls"
    assert output_digest.moved_counts(theirs, mine) == "9 → 11 inv entries, 2 → 3 det calls"
    assert output_digest.moved_counts(theirs, theirs) == \
        "5 → 5 inv calls, 9 → 9 inv entries, 2 → 2 det calls"
