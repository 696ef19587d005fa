"""The repository's pytest settings: a failing property test is reported like
any other failure and the rest of the run still runs."""

import os
import subprocess
import sys

PYPROJECT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "pyproject.toml")

MODULE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 0


def test_passes():
    pass
'''


def test_failing_hypothesis_test_does_not_end_the_run(tmp_path):
    """Under ``filterwarnings = error`` a DeprecationWarning raised while
    hypothesis reports its failure would stop pytest with an INTERNALERROR,
    leaving every later test unreported."""
    (tmp_path / "test_module.py").write_text(MODULE)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", PYPROJECT, "-q", "-p", "no:cacheprovider",
         "test_module.py"],
        capture_output=True, text=True, cwd=tmp_path,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
