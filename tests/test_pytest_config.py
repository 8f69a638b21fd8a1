"""The repository's pytest configuration keeps a failing property a plain failure.

``filterwarnings = ["error"]`` turns every warning into an error, also in
the hooks of pytest's plugins.  Hypothesis's plugin imports libcst when
it reports a failing example, and an import warning raised there as an
error would end the whole session with INTERNALERROR.
"""
import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_failing_property_does_not_stop_the_session(tmp_path):
    (tmp_path / "test_case.py").write_text(textwrap.dedent("""\
        from hypothesis import given, strategies as st


        @given(st.integers())
        def test_fails(x):
            assert x < 5


        def test_passes():
            pass
    """))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_case.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    output = proc.stdout + proc.stderr
    assert proc.returncode == 1, output
    assert "INTERNALERROR" not in output
    assert "1 failed, 1 passed" in output
