"""The suite's pytest settings let a failing test be reported like any other.

pyproject.toml turns every warning into an error.  A failing Hypothesis test
must still fail alone: the tests after it run, and the session ends with its
summary, not an INTERNALERROR.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

THREE_TESTS = '''
import hypothesis
from hypothesis import strategies as st


def test_first():
    pass


@hypothesis.settings(derandomize=True, database=None, max_examples=5, deadline=None)
@hypothesis.given(st.integers())
def test_second(x):
    assert x < 0


def test_third():
    pass
'''


def test_failing_hypothesis_test_ends_nothing_but_itself(tmp_path):
    (tmp_path / "test_three.py").write_text(THREE_TESTS)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-c", str(PYPROJECT), "-p", "no:cacheprovider",
         "test_three.py"],
        cwd=tmp_path, env=dict(os.environ), capture_output=True, text=True, timeout=120)
    output = result.stdout + result.stderr
    assert "INTERNALERROR" not in output, output
    assert "1 failed, 2 passed" in output, output
    assert result.returncode == 1, output
