"""Every demo script runs to completion, prints its golden stdout byte for byte, and cleans up.

The goldens under ``tests/golden/demos/`` hold each demo's stdout; a demo
whose output changes on purpose gets its golden rewritten in the same change.
"""

import difflib
import os
import subprocess
import sys

import pytest

from conftest import REPO_ROOT, TESTS_DIR

DEMOS = sorted((REPO_ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    src = str(REPO_ROOT / "src")
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": pythonpath, "TMPDIR": str(tmp_path)}
    result = subprocess.run([sys.executable, str(demo)], capture_output=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr.decode("utf-8", "replace")
    golden = TESTS_DIR / "golden" / "demos" / f"{demo.stem}.txt"
    expected = golden.read_bytes()
    if result.stdout != expected:
        diff = difflib.unified_diff(
            expected.decode("utf-8").splitlines(keepends=True),
            result.stdout.decode("utf-8", "replace").splitlines(keepends=True),
            fromfile=str(golden),
            tofile=f"{demo.name} stdout",
        )
        pytest.fail("".join(diff), pytrace=False)
    assert list(tmp_path.iterdir()) == []
