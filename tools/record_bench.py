"""Record the benchmark of the checked-out tree as one ``BENCH_*.json`` file.

Run from the repository root:

    python3 tools/record_bench.py --out BENCH_pr36.json

For every workload in ``BENCHMARK.json`` it runs ``perfbench/run.py`` in a
subprocess, untraced under seeds 1, 2 and 3 and then traced under seed 1,
each for the file's ``run_seconds``.  It keeps each run's record line, the
second-to-last line of stdout (``{"record": {...}}``, with the metrics and
the environment block), and writes them, in run order, as one JSON list
with one record to a line.  The file is written only when every run printed
its record.  Exit code 1 means that some run checked an output as wrong, 2
that a run printed no record.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: (seed, trace) of the runs made for each workload, in order.
RUNS = ((1, 0), (2, 0), (3, 0), (1, 1))


def record(workload, seed, trace, seconds) -> dict:
    """The ``{"record": ...}`` object of one ``perfbench/run.py`` run."""
    argv = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    result = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    lines = result.stdout.splitlines()
    entry = json.loads(lines[-2]) if len(lines) >= 2 and lines[-2].startswith('{"record"') else None
    if entry is None:
        print(f"error: {' '.join(argv[1:])} printed no record (exit {result.returncode}):\n"
              f"{result.stderr}", file=sys.stderr)
        sys.exit(2)
    return entry


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=Path, help="the JSON file to write")
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    entries = []
    for workload in (item["name"] for item in benchmark["workloads"]):
        for seed, trace in RUNS:
            entries.append(record(workload, seed, trace, benchmark["run_seconds"]))
            print(f"{workload} seed {seed} trace {trace}: "
                  f"{entries[-1]['record']['failed']} failed", flush=True)
    args.out.write_text("[\n" + ",\n".join(map(json.dumps, entries)) + "\n]\n")
    print(f"wrote {args.out} ({len(entries)} records)")
    return 0 if all(entry["record"]["correct"] for entry in entries) else 1


if __name__ == "__main__":
    sys.exit(main())
