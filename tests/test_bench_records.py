"""The committed ``BENCH_*.json`` files: each is a whole benchmark record.

``tools/record_bench.py`` writes them.  Each holds, for every workload in
``BENCHMARK.json``, untraced runs that report every end-to-end metric with
every output correct, and a traced run that reports every per-layer metric.
It measures a committed tree, one with no uncommitted change, whose commit
is an ancestor of HEAD.
"""

import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def records(path):
    return [entry["record"] for entry in json.loads(path.read_text())]


def test_a_bench_record_is_committed():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda path: path.name)
def test_bench_file_covers_every_workload_and_metric(path):
    runs = records(path)
    for workload in (item["name"] for item in BENCHMARK["workloads"]):
        for trace, gated in ((0, "end_to_end"), (1, "per_layer")):
            ran = [run for run in runs if run["workload"] == workload and run["trace"] == trace]
            assert ran, f"{path.name} has no {workload} run with --trace {trace}"
            for run in ran:
                assert run["correct"] and run["failed"] == 0, run["failures"]
                assert run["environment"]["git_dirty"] is False, "measures uncommitted changes"
                assert {metric["name"] for metric in BENCHMARK[gated]} <= run["metrics"].keys()
                if not trace:
                    assert run["metrics"]["success_rate"]["value"] == 1.0


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda path: path.name)
def test_bench_file_measures_an_ancestor_of_head(path):
    if not (ROOT / ".git").exists():
        pytest.skip("not a git checkout")
    for commit in {run["environment"]["git_commit"] for run in records(path)}:
        result = subprocess.run(["git", "merge-base", "--is-ancestor", commit, "HEAD"], cwd=ROOT)
        assert result.returncode == 0, f"{path.name} measures {commit}, not an ancestor of HEAD"
