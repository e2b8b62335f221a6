"""The repository's pytest settings, run on a deliberately failing test file."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers(0, 3))
def test_fails(n):
    assert n < 2
'''


def test_a_failing_property_reports_its_falsifying_example(tmp_path):
    # hypothesis imports libcst to print the example, and that import warns
    # DeprecationWarning; the warning filters must fail the test, not pytest
    (tmp_path / "test_failing.py").write_text(FAILING_PROPERTY)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_failing.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "Falsifying example" in proc.stdout
