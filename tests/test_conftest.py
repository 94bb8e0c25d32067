"""tests/conftest.py: a failing property test does not end the session."""
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FAILING_THEN_PASSING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n != n


def test_passes():
    pass
'''


def test_failing_property_test_lets_the_next_one_run():
    # When a hypothesis test fails, hypothesis imports its patch module; under
    # pyproject's error::DeprecationWarning an import that warns would end the
    # session with an INTERNALERROR and report "1 failed" alone.
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(ROOT / "tests" / "conftest.py", tmp)
        Path(tmp, "test_two.py").write_text(FAILING_THEN_PASSING)
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        out = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             "-c", str(ROOT / "pyproject.toml"), "--rootdir", tmp, "test_two.py"],
            cwd=tmp, env=env, capture_output=True, text=True).stdout
    assert "INTERNALERROR" not in out
    assert out.splitlines()[-1].startswith("1 failed, 1 passed"), out
