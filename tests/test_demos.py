"""Each script in demos/ runs to completion with warnings as errors."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.name)
def test_demo_runs(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    # A demo may write scratch files only where it removes them again: with
    # tmp_path as both its cwd and its TMPDIR, anything left over shows here.
    env["TMPDIR"] = str(tmp_path)
    result = subprocess.run([sys.executable, "-W", "error", str(script)], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert not any(tmp_path.iterdir()), sorted(path.name for path in tmp_path.iterdir())
