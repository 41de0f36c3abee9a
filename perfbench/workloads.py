"""Workloads: shape classes, generated inputs, requests and output checks.

Every workload is a fixed, odd number of equally weighted shape classes,
so that, where the classes' request times lie apart, the median and the
90th percentile each fall inside a class instead of on a boundary between
two.  The seed chooses sample values and request order, never shapes.

Outputs are checked against an independent numpy reference outside the
timed section: ``np.fft.fft`` of the zero-padded samples when alpha*N >= N,
or of the alias-folded samples when alpha*N < N.  Both identities hold for
any integer alpha*N.
"""

import contextlib
import io as stdio
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from alpha_spectra import cli, fastpath
from alpha_spectra.core import DenseFactor, Signal, validate_pair

#: Relative max error allowed against the reference (the verify suites' bound).
TOLERANCE = 1e-10


@dataclass(frozen=True)
class Workload:
    """One closed-loop workload.

    ``classes`` holds (N, alpha, input format) triples.  ``cli_args`` is
    None for the in-memory library path, else the extra ``compute``
    arguments.  ``array_bound`` says that requests spend most of their time
    in numpy array work rather than in interpreted loops, which picks the
    calibration kernel (see harness.Calibration).
    """

    classes: tuple
    cli_args: tuple | None = None
    array_bound: bool = False


WORKLOADS = {
    # Plan plus butterflies are nearly all of each request: the only place
    # kernel and plan changes show.  Plans afresh per request, as the README
    # quick start does.
    "fft-memory": Workload(
        tuple((65536, alpha, None) for alpha in ("1/8", "1/2", "1", "2", "8")),
        array_bound=True),
    # Write-heavy use of io: alpha > 1 writes up to 8x more rows than it reads.
    "compute-dense": Workload(
        tuple((16384, alpha, "csv") for alpha in ("2", "4", "8")), ()),
    # Read-heavy use of io; one class reads JSON so both parsers are timed.
    "compute-thin": Workload(
        ((65536, "1/8", "csv"), (65536, "1/4", "csv"), (65536, "1/2", "json")), ()),
    # Pairs the fast path rejects: the only workload where the oracle runs.
    "compute-general": Workload(
        ((3000, "5/3", "csv"), (1536, "4", "csv"), (1000, "3/5", "csv")),
        ("--method", "auto"), array_bound=True),
}


def reference_bins(x: np.ndarray, m: int) -> np.ndarray:
    """The alpha*N = m bins of ``x`` computed with numpy's FFT alone."""
    if m >= x.size:
        return np.fft.fft(x, n=m)
    padded = np.zeros(-(-x.size // m) * m, dtype=np.complex128)
    padded[: x.size] = x
    return np.fft.fft(padded.reshape(-1, m).sum(axis=0))


def check_bins(bins: np.ndarray, reference: np.ndarray) -> str | None:
    """None when ``bins`` match ``reference``, else a one-line reason."""
    if bins.shape != reference.shape:
        return f"expected {reference.size} bins, got shape {bins.shape}"
    error = np.max(np.abs(bins - reference)) / np.max(np.abs(reference))
    if not error <= TOLERANCE:
        return f"relative max error {error:.3e} exceeds {TOLERANCE:.0e}"
    return None


def check_spectrum_csv(path, n: int, alpha: DenseFactor, reference: np.ndarray) -> str | None:
    """Check a spectrum CSV written by ``compute``, parsed with numpy alone."""
    metadata = {}
    skip, line = 0, ""
    try:
        with open(path) as fh:
            for skip, line in enumerate(fh, start=1):
                if not line.startswith("#"):
                    break
                key, _, value = line[1:].strip().partition("=")
                metadata[key.strip()] = value.strip()
    except OSError as exc:
        return f"cannot read the spectrum: {exc}"
    if line.strip() != "m,freq,re,im,magnitude":
        return f"unexpected header {line.strip()!r}"
    expected = {"N": str(n), "alpha": f"{alpha.p}/{alpha.q}"}
    for key, value in expected.items():
        if metadata.get(key) != value:
            return f"'# {key}=' reads {metadata.get(key)!r}, expected {value!r}"
    try:
        rows = np.loadtxt(path, delimiter=",", skiprows=skip, usecols=(0, 2, 3), ndmin=2)
    except ValueError as exc:
        return f"unparseable spectrum rows: {exc}"
    if not np.array_equal(rows[:, 0], np.arange(rows.shape[0])):
        return "bin index column is not 0, 1, 2, ..."
    return check_bins(rows[:, 1] + 1j * rows[:, 2], reference)


def write_signal_csv(path, x: np.ndarray) -> None:
    with open(path, "w") as fh:
        fh.write(f"# T=1\n# N={x.size}\nindex,re,im\n")
        np.savetxt(fh, np.column_stack((np.arange(x.size), x.real, x.imag)),
                   fmt=("%d", "%.17g", "%.17g"), delimiter=",")


def write_signal_json(path, x: np.ndarray) -> None:
    with open(path, "w") as fh:
        json.dump({"T": 1.0, "samples": np.column_stack((x.real, x.imag)).tolist()}, fh)


@dataclass
class Case:
    """One shape class made concrete: its inputs and its reference output."""

    n: int
    alpha: DenseFactor
    m: int
    reference: np.ndarray
    signal: Signal | None = None
    argv: list | None = None
    output: Path | None = None


def prepare(workload: Workload, seed: int, workdir: Path) -> list:
    """Generate each class's samples from ``seed``; write the CLI input files."""
    rng = np.random.default_rng(seed)
    cases = []
    for index, (n, alpha_text, fmt) in enumerate(workload.classes):
        alpha = DenseFactor.from_string(alpha_text)
        _, m = validate_pair(n, alpha)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        case = Case(n, alpha, m, reference_bins(x, m))
        if workload.cli_args is None:
            case.signal = Signal(x)
        else:
            source = workdir / f"signal_{index}.{fmt}"
            (write_signal_json if fmt == "json" else write_signal_csv)(source, x)
            case.output = workdir / f"spectrum_{index}.csv"
            case.argv = ["compute", "--input", str(source), "--output", str(case.output),
                         "--alpha", alpha_text, *workload.cli_args]
        cases.append(case)
    return cases


def request(case: Case, counter=None):
    """One request through public entry points; returns what ``check`` needs.

    The in-memory path returns (Spectrum, Plan); the CLI path returns the
    exit code, with stdout captured.
    """
    if case.argv is None:
        p = fastpath.plan(case.n, case.alpha)
        return fastpath.alpha_fft(case.signal, p, counter), p
    with contextlib.redirect_stdout(stdio.StringIO()):
        return cli.main(case.argv)


def check(case: Case, result) -> str | None:
    """None when a request's output is correct, else a one-line reason."""
    if case.argv is None:
        spectrum, _ = result
        if (spectrum.origin_n, spectrum.alpha) != (case.n, case.alpha):
            return f"spectrum labelled N={spectrum.origin_n}, alpha={spectrum.alpha}"
        return check_bins(spectrum.bins, case.reference)
    try:
        if result != cli.EXIT_OK:
            return f"compute exited with code {result}"
        return check_spectrum_csv(case.output, case.n, case.alpha, case.reference)
    finally:
        discard_output(case)


def discard_output(case: Case) -> None:
    """Remove a CLI request's output, so that the next request must write it anew."""
    if case.output is not None:
        case.output.unlink(missing_ok=True)
