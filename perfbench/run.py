"""Closed-loop end-to-end benchmark of alpha-spectra, with a traced per-layer run.

Run from the repository root:

    python3 perfbench/run.py --workload compute-dense --seed 1 --seconds 20 --trace 0

One caller sends the next request only after the previous one returned
(a single-threaded closed loop), for ``--seconds`` seconds and always in
whole rounds over the workload's shape classes.  Requests go through public
entry points only: ``cli.main(["compute", ...])`` in process, or
``fastpath.plan`` + ``fastpath.alpha_fft``.  Every output is checked
against a numpy reference outside the timed section.  A fixed calibration
kernel is timed on both sides of each request; latency and throughput are
reported in units of its time ("cal"), which cancels most of a shared
host's speed drift.  Wall-clock seconds are in the record line, not gated.
Helper tests: ``python3 -m pytest -q perfbench/tests``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` spends half
the time untraced and half with every layer's public functions wrapped in
spans (see tracing.py), and reports the per-layer metrics.  The last line
of stdout is one JSON object: correct, attempted, failed, metrics.  The
line before it is the full record, with the environment block.  Exit code
0 means every output was correct, 1 that some were not, 2 a usage error or
missing sources.
"""

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Generated inputs and outputs live here, outside the source tree.
WORK_ROOT = ROOT / ".perfbench_tmp"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    package = SRC / "alpha_spectra"
    if not (package / "__init__.py").is_file():
        print(f"error: alpha_spectra sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import alpha_spectra
    import harness
    import workloads

    if Path(alpha_spectra.__file__).resolve().parent != package.resolve():
        print(f"error: imported alpha_spectra from {alpha_spectra.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r} "
              f"(choose from {', '.join(workloads.WORKLOADS)})", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _PROCESS_START

    runs, metrics, extra = harness.run(workloads.WORKLOADS[args.workload], args.seed,
                                       args.seconds, bool(args.trace), WORK_ROOT, import_s)
    failures = [failure for run in runs for failure in run["failures"]]
    result = {
        "correct": not failures,
        "attempted": sum(run["attempted"] for run in runs),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{result['attempted']} requests, {result['failed']} failed")
    for name, (value, unit) in metrics.items():
        print(f"  {name:45s} {value:14.6g} {unit}")
    for name, value in extra.items():
        print(f"  {name:45s} {value}")
    for failure in failures:
        print(f"failure: {failure}", file=sys.stderr)
    record = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
              "environment": harness.environment(ROOT, args.seed), "failures": failures,
              **extra, **result}
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
