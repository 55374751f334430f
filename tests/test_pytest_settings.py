"""The project's pytest settings report a failing property test normally.

``filterwarnings = ["error"]`` turns warnings into errors.  A warning raised
inside a plugin hook while a test is reported would then end the whole
session with INTERNALERROR, hide the falsifying example and skip every
later test.  This runs a failing ``@given`` test and a plain test under the
project's settings in a fresh pytest process.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROBE = '''
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, database=None)
@given(st.integers(min_value=0, max_value=10))
def test_fails(x):
    assert x < 5


def test_passes():
    assert True
'''


def test_failing_property_test_is_reported(tmp_path):
    (tmp_path / "test_probe.py").write_text(PROBE)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "-p", "no:cacheprovider", "-q", str(tmp_path / "test_probe.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out, out
    assert "1 failed, 1 passed" in out, out
    assert "Falsifying example: test_fails(" in out, out
