"""Set-up, the closed request loop, metrics and the environment block."""

import contextlib
import os
import platform
import resource
import shutil
import statistics
import subprocess
import tempfile
import time
from pathlib import Path

import numpy as np

from alpha_spectra import fastpath

import tracing
from workloads import check, discard_output, prepare, request

#: Set-up is repeated this many times and its median reported.
SETUP_REPEATS = 3


def percentiles(values) -> dict:
    """Linear-interpolated p50 and p90 of ``values``, with the sample count."""
    result = {"count": len(values)}
    for q in (50, 90):
        result[f"p{q}"] = float(np.percentile(values, q)) if values else 0.0
    return result


class Calibration:
    """Fixed work, independent of alpha-spectra, timed on both sides of each request.

    On a shared host the CPU's speed drifts by tens of percent for minutes
    at a time, which no run length averages out.  A request's time divided
    by this kernel's time measured around it cancels most of that drift,
    while any change in the program's own work shows in full.  The kernel
    does the kind of work the workload's requests spend their time on:
    interpreted loops with float formatting (as io does) and, for workloads
    whose time goes to numpy arrays, also an FFT over 1 MiB (as fastpath
    does) and integer arithmetic into a fresh 8 MiB array (as the oracle's
    index tables are built).
    """

    def __init__(self, arrays: bool):
        rng = np.random.default_rng(0)
        self._values = rng.standard_normal(3000).tolist()
        self._arrays = arrays
        self._samples = rng.standard_normal(65536) + 1j * rng.standard_normal(65536)
        self._indices = np.arange(1 << 20)

    def __call__(self) -> float:
        start = time.perf_counter()
        ",".join(format(value, ".17g") for value in self._values)
        total = 0
        for i in range(20_000):
            total += i * i
        if self._arrays:
            np.fft.fft(self._samples)
            self._indices % 6144
        return time.perf_counter() - start


def closed_loop(cases, seconds, order_rng, calibration, tracer=None) -> dict:
    """Run whole rounds of ``cases`` in seeded order until ``seconds`` pass.

    Only the request is timed; the calibrations on either side of it and
    the check after it are not.  With a tracer, each request is a root span, and in-memory
    requests pass an OpCounter whose totals must equal the predicted counts.
    """
    latencies, relative, calibrations, failures = [], [], [], []
    bins = 0
    busy = busy_rel = 0.0
    deadline = time.perf_counter() + seconds
    while True:
        for index in order_rng.permutation(len(cases)):
            case = cases[index]
            label = f"N={case.n} alpha={case.alpha}"
            counter = fastpath.OpCounter() if tracer is not None and case.argv is None else None
            span = tracer.span(tracing.REQUEST) if tracer is not None else contextlib.nullcontext()
            before = calibration()
            start = time.perf_counter()
            try:
                with span:
                    result = request(case, counter)
            except Exception as exc:  # a failed request is counted, not fatal
                result, problem = None, f"request_error {label}: {type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
            # The mean of the times on either side follows a speed change mid-request.
            calibrations.append((before + calibration()) / 2)
            busy += elapsed
            busy_rel += elapsed / calibrations[-1]
            if result is not None:
                reason = check(case, result)
                problem = None if reason is None else f"wrong_output {label}: {reason}"
            if problem is None and counter is not None:
                p = result[1]
                expected = (fastpath.predicted_mults(p), fastpath.predicted_adds(p))
                counted = (counter.complex_mults, counter.complex_adds)
                if counted != expected:
                    problem = (f"count_mismatch {label}: OpCounter (mults, adds) "
                               f"{counted} != predicted {expected}")
            if problem is not None:
                failures.append(problem)
                continue
            latencies.append(elapsed)
            relative.append(elapsed / calibrations[-1])
            bins += case.m
        if time.perf_counter() >= deadline:
            break
    return {
        "attempted": len(calibrations),
        "failures": failures,
        "latency": percentiles(latencies),
        "relative": percentiles(relative),
        "bins_per_s": bins / busy,
        "bins_per_cal": bins / busy_rel,
        "calibration_s": statistics.median(calibrations),
    }


def _git(root: Path, *args):
    # The ceiling keeps git from answering for a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        done = subprocess.run(["git", *args], cwd=root, env=env, capture_output=True,
                              text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(root: Path, seed: int) -> dict:
    commit = _git(root, "rev-parse", "HEAD")
    status = _git(root, "status", "--porcelain", "--untracked-files=no") if commit else None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": commit,
        "git_dirty": None if status is None else bool(status),
        "seed": seed,
    }


def set_up(workload, seed, workdir):
    """Generate and write inputs, then one untimed request per shape class."""
    cases = prepare(workload, seed, workdir)
    for case in cases:
        request(case)
        discard_output(case)
    return cases


def run(workload, seed: int, seconds: float, trace: bool, work_root: Path, import_s: float):
    """Set up, run the closed loop(s) and return (runs, metrics, extra record fields).

    Generated files go to a fresh directory under ``work_root``, removed
    before returning.
    """
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=work_root))
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            cases = set_up(workload, seed, workdir)
            setup_times.append(time.perf_counter() - start)

        order_rng = np.random.default_rng([seed, 1])
        calibration = Calibration(workload.array_bound)
        if trace:
            untraced = closed_loop(cases, seconds / 2, order_rng, calibration)
            with tracing.Tracer() as tracer:
                traced = closed_loop(cases, seconds / 2, order_rng, calibration, tracer)
            metrics = tracing.layer_metrics(tracer, untraced["bins_per_cal"], traced["bins_per_cal"])
            extra = {"dominant_layer": tracing.dominant_layer(tracer),
                     "traced_requests": traced["attempted"]}
            return [untraced, traced], metrics, extra

        result = closed_loop(cases, seconds, order_rng, calibration)
        relative = result["relative"]
        metrics = {
            "setup_s": (import_s + statistics.median(setup_times), "s"),
            "latency_p50_rel": (relative["p50"], "cal"),
            "latency_p90_rel": (relative["p90"], "cal"),
            "bins_per_cal": (result["bins_per_cal"], "1/cal"),
            "success_rate": (1 - len(result["failures"]) / result["attempted"], "ratio"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
        # Wall-clock figures, recorded but not gated: they move with the host.
        extra = {"latency_samples": relative["count"],
                 "latency_p50_s": result["latency"]["p50"],
                 "latency_p90_s": result["latency"]["p90"],
                 "bins_per_s": result["bins_per_s"],
                 "calibration_s": result["calibration_s"],
                 "import_s": import_s, "setup_repeats_s": setup_times}
        return [result], metrics, extra
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()  # succeeds once no concurrent run still uses it
