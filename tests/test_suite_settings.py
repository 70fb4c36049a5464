"""The suite's own pytest settings (``pyproject.toml``): with every warning
an error, a failing property test still reports its falsifying example
instead of aborting the session."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

_PLANTED = """
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_planted(n):
    assert n < 5
"""


def test_failing_property_test_names_its_example(tmp_path):
    # the planted test and everything pytest writes stay in tmp_path
    (tmp_path / "test_planted.py").write_text(_PLANTED)
    command = [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path)]
    run = subprocess.run(
        [*command, "-p", "no:cacheprovider", "test_planted.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    out = run.stdout + run.stderr
    assert "Falsifying example" in out and "INTERNALERROR" not in out, out
    assert run.returncode == 1, out
