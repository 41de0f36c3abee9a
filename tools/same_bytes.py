"""List the command lines whose output differs between a git revision and the working tree.

Run from anywhere in the repository:

    python3 tools/same_bytes.py --parent HEAD~1

It builds both trees (``trees.pair``) and runs one fixed manifest in each,
every invocation in a fresh directory of its own:

* ``verify``, ``bench --output --csv`` and ``demo-sine``, with their
  defaults;
* the four demos;
* ``compute`` on a signal of each benchmark workload class's shape
  (``perfbench/workloads.py``), and on the command line's refusals: both
  size refusals, the density refusals, too many bins, overflow, unreadable
  and malformed input, an output that names its input, a flag argparse
  refuses, and ``bench`` and ``demo-sine`` requests that are refused.

The input signals are written once, outside both trees, so an error line
that names one reads the same in both.  Wall times are masked before
anything is compared: ``bench``'s ``wall_ns`` values, in its JSON report
and its records CSV, and the ``us`` column of demo 04.

It prints each invocation whose exit code, stdout, stderr or output files
(by the md5 of their masked bytes) differ, with what differs, and then one
summary line.  The exit code is 0 when nothing differs, else 1.
"""

import argparse
import csv
import difflib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from trees import pair

#: Workload classes (N, alpha, input format, extra compute flags), one
#: ``compute`` each, as ``perfbench/workloads.py`` defines them.
WORKLOAD_SHAPES = (
    # fft-memory, whose 1/8 class is compute-thin's first
    *((65536, alpha, "csv", ()) for alpha in ("1/2", "1", "2", "8")),
    *((16384, alpha, "csv", ()) for alpha in ("2", "4", "8")),  # compute-dense
    (65536, "1/8", "csv", ()), (65536, "1/4", "csv", ()), (65536, "1/2", "json", ()),
    *((n, alpha, "csv", ("--method", "auto"))
      for n, alpha in ((3000, "5/3"), (1536, "4"), (1000, "3/5"))),  # compute-general
)

#: Small input files: name -> text.
SMALL_INPUTS = {
    "twelve.csv": "# T=1\nindex,re,im\n" + "".join(f"{i},1,0\n" for i in range(12)),
    "huge.csv": "# T=1\nindex,re,im\n0,1e308,0\n1,1e308,0\n",
    "bad.csv": "# T=1\nindex,re,im\n0,1,0\n1,x,0\n",
    "bad.json": '{"samples": [[1, 0], [0, "x"]]}',
}


def manifest(inputs: Path) -> list:
    """(label, argv after the interpreter) of every invocation."""
    cli = ["-m", "alpha_spectra.cli"]
    runs = [
        ("verify", [*cli, "verify"]),
        ("bench", [*cli, "bench", "--output", "report.json", "--csv", "records.csv"]),
        ("demo-sine", [*cli, "demo-sine", "--output", "demo"]),
    ]
    runs += [(f"demo {name}", [f"{{tree}}/demos/{name}"])
             for name in ("01_dense_spectrum_basics.py", "02_picket_fence_sine.py",
                          "03_operation_counts.py", "04_benchmark_report.py")]
    for n, alpha, fmt, extra in WORKLOAD_SHAPES:
        runs.append((f"compute N={n} alpha={alpha} {fmt} {' '.join(extra)}".rstrip(),
                     [*cli, "compute", "--input", str(inputs / f"signal_{n}.{fmt}"),
                      "--output", "spectrum.csv", "--alpha", alpha, *extra]))
    refusals = (
        ("fft size refusal", "twelve.csv", ["--method", "fft"]),
        ("zeropad size refusal", "twelve.csv", ["--alpha", "3", "--method", "zeropad"]),
        ("alpha*N not an integer", "twelve.csv", ["--alpha", "1/5"]),
        ("zeropad thinning", "twelve.csv", ["--alpha", "1/2", "--method", "zeropad"]),
        ("too many bins", "twelve.csv", ["--alpha", "268435457"]),
        ("overflowing samples", "huge.csv", []),
        ("overflowing frequencies", "twelve.csv", ["--duration", "1e-320"]),
        ("missing input", "absent.csv", []),
        ("malformed csv", "bad.csv", []),
        ("malformed json", "bad.json", []),
        ("argparse refusal", "twelve.csv", ["--alpha", "x"]),
    )
    for label, name, flags in refusals:
        runs.append((f"compute: {label}", [*cli, "compute", "--input", str(inputs / name),
                                           "--output", "spectrum.csv", *flags]))
    runs += [
        ("compute: output names its input",
         [*cli, "compute", "--input", str(inputs / "twelve.csv"), "--output",
          str(inputs / "twelve.csv")]),
        ("bench: no runnable cell", [*cli, "bench", "--grid-n", "3", "--grid-alpha", "1/2"]),
        ("bench: one file named twice", [*cli, "bench", "--output", "r", "--csv", "r"]),
        ("demo-sine: alpha*N not an integer",
         [*cli, "demo-sine", "--n", "8", "--alphas", "1,1/3", "--output", "demo"]),
    ]
    return runs


def write_inputs(inputs: Path) -> None:
    """The signal files of the manifest, from one seeded generator."""
    rng = np.random.default_rng(0)
    for n, _, fmt, _ in WORKLOAD_SHAPES:
        path = inputs / f"signal_{n}.{fmt}"
        if path.exists():
            continue
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        if fmt == "json":
            path.write_text(json.dumps({"T": 1.0, "samples": np.column_stack((x.real, x.imag))
                                        .tolist()}))
        else:
            with open(path, "w") as fh:
                fh.write(f"# T=1\n# N={n}\nindex,re,im\n")
                np.savetxt(fh, np.column_stack((np.arange(n), x.real, x.imag)),
                           fmt=("%d", "%.17g", "%.17g"), delimiter=",")
    for name, text in SMALL_INPUTS.items():
        (inputs / name).write_text(text)


# ------------------------------------------------------------------ masking

def mask_bench_json(data: bytes) -> bytes:
    return re.sub(rb'"wall_ns": \d+', b'"wall_ns": 0', data)


def mask_bench_csv(data: bytes) -> bytes:
    """The records CSV with every ``wall_ns`` cell read as 0."""
    rows = list(csv.reader(io.StringIO(data.decode())))
    if not rows or "wall_ns" not in rows[0]:
        return data
    column = rows[0].index("wall_ns")
    for row in rows[1:]:
        row[column] = "0"
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue().encode()


def mask_demo_walls(text: str) -> str:
    """Demo 04's stdout with each ``<number> us`` wall time read as ``<wall>``."""
    return re.sub(r" *\d+\.\d us$", "<wall>", text, flags=re.M)


#: The masks of what holds wall times: files by name, and stdout by label.
FILE_MASKS = {"report.json": mask_bench_json, "records.csv": mask_bench_csv}
STDOUT_MASKS = {"demo 04_benchmark_report.py": mask_demo_walls}


def outcome(label: str, code: int, stdout: str, stderr: str, files: dict) -> dict:
    """What is compared of the invocation ``label``: its exit code, masked
    stdout, stderr, and for each file (``files`` maps a name to its bytes)
    the md5 of its masked bytes."""
    stdout = STDOUT_MASKS.get(label, str)(stdout)
    digests = {name: hashlib.md5(FILE_MASKS.get(Path(name).name, bytes)(data)).hexdigest()
               for name, data in files.items()}
    return {"exit": code, "stdout": stdout, "stderr": stderr, "files": digests}


def differences(before: dict, after: dict) -> list:
    """Lines saying how two outcomes differ; empty when they are the same."""
    lines = []
    if before["exit"] != after["exit"]:
        lines.append(f"  exit {before['exit']} -> {after['exit']}")
    for stream in ("stdout", "stderr"):
        if before[stream] != after[stream]:
            diff = difflib.unified_diff(before[stream].splitlines(), after[stream].splitlines(),
                                        "parent", "change", lineterm="", n=0)
            lines += [f"  {stream}: {line}" for line in list(diff)[2:]]
    for name in sorted(before["files"].keys() | after["files"].keys()):
        old, new = before["files"].get(name, "absent"), after["files"].get(name, "absent")
        if old != new:
            lines.append(f"  file {name}: md5 {old} -> {new}")
    return lines


# ------------------------------------------------------------------ running

def run(tree: Path, work: Path, label: str, argv: list) -> dict:
    """Run one invocation in ``work`` against ``tree``'s library."""
    work.mkdir(parents=True)
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    argv = [sys.executable, *(arg.replace("{tree}", str(tree)) for arg in argv)]
    result = subprocess.run(argv, cwd=work, env=env, capture_output=True, text=True)
    files = {str(path.relative_to(work)): path.read_bytes()
             for path in sorted(work.rglob("*")) if path.is_file()}
    return outcome(label, result.returncode, result.stdout, result.stderr, files)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the git revision to compare against")
    args = parser.parse_args(argv)
    with pair(args.parent) as (parent, change), tempfile.TemporaryDirectory() as scratch:
        inputs = Path(scratch) / "inputs"
        inputs.mkdir()
        write_inputs(inputs)
        runs = manifest(inputs)
        differing = 0
        for index, (label, command) in enumerate(runs):
            before = run(parent, Path(scratch) / "parent" / str(index), label, command)
            after = run(change, Path(scratch) / "change" / str(index), label, command)
            lines = differences(before, after)
            if lines:
                differing += 1
                print(f"{label}:", *lines, sep="\n", flush=True)
        print(f"{differing} of {len(runs)} invocations differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
