"""Each script in demos/ and the README's code run to completion with warnings as errors."""

import ast
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 4


def run_demo(script, tmp_path):
    """The script's stdout, run with warnings as errors; it must exit 0."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    # A demo may write scratch files only where it removes them again: with
    # tmp_path as both its cwd and its TMPDIR, anything left over shows here.
    env["TMPDIR"] = str(tmp_path)
    result = subprocess.run([sys.executable, "-W", "error", str(script)], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert not any(tmp_path.iterdir()), sorted(path.name for path in tmp_path.iterdir())
    return result.stdout


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.name)
def test_demo_runs(script, tmp_path):
    run_demo(script, tmp_path)


def test_benchmark_report_prints_the_same_but_for_wall_times(tmp_path):
    # Wall times are the one thing demo 04 prints that its inputs do not fix.
    script = ROOT / "demos" / "04_benchmark_report.py"
    masked = [re.subn(r" *\d+\.\d us$", "<wall>", run_demo(script, tmp_path), flags=re.M)
              for _ in range(2)]
    assert masked[0] == masked[1]
    assert masked[0][1] == 6


def test_readme_python_blocks_run_and_their_counts_hold():
    # The ```python blocks run in order in one namespace; where a line's
    # comment starts with an integer, that integer is the line's value.
    readme = (ROOT / "README.md").read_text()
    namespace, checked = {}, []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for block in re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S):
            lines = block.splitlines()
            for node in ast.parse(block).body:
                code = ast.get_source_segment(block, node)
                stated = re.search(r"#\s*(\d+)\b", lines[node.end_lineno - 1])
                if stated is None:
                    exec(code, namespace)
                    continue
                assert isinstance(node, ast.Expr), code
                assert eval(code, namespace) == int(stated[1]), lines[node.end_lineno - 1]
                checked.append(code)
    assert len(checked) >= 3, checked
