"""Operation-count and wall-time benchmarking with machine-checkable verdicts.

Counts come from instrumented kernel runs (the naive method's count is its
matrix size, which the matrix product performs by construction) and are
exact integers, so the scaling claims below are integer identities under
this counting convention, not curve fits:

  alpha > 1:  zeropad_mults - alpha_mults == (alpha*N/2) * log2(alpha)
  alpha < 1:  fft_mults(N) - alpha_mults == (N/2)*log2(N) - (M/2)*log2(M),
              with M = alpha*N; this gap exceeds the coarse per-level
              estimate (N/2)*log2(1/alpha) by (N-M)/2 * log2(M), because
              the shrunken transform also runs fewer, shorter levels.

Wall times use a minimum over repetitions of pre-planned transforms; plan
construction is never timed.
"""

import csv
import json
import time
from dataclasses import dataclass, field

import numpy as np

from . import baseline, fastpath, oracle
from .core import DenseFactor, Signal, validate_pair
from .verify import random_unit_disk

METHODS = ("alpha_fft", "zeropad_fft", "naive")


class IncompleteGridError(ValueError):
    """The record set lacks the grid points a claim check needs."""


@dataclass(frozen=True)
class BenchRecord:
    """One (N, alpha, method) measurement: exact counts plus best wall time."""

    n: int
    alpha: DenseFactor
    method: str
    complex_mults: int
    complex_adds: int
    wall_time: float  # seconds, minimum over ``repetitions`` runs
    repetitions: int

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.complex_mults < 0 or self.complex_adds < 0:
            raise ValueError("operation counts cannot be negative")
        if not self.wall_time > 0 or self.repetitions < 1:
            raise ValueError("wall_time must be positive and repetitions >= 1")

    def to_row(self) -> dict:
        return {
            "N": self.n,
            "alpha_p": self.alpha.p,
            "alpha_q": self.alpha.q,
            "method": self.method,
            "mults": self.complex_mults,
            "adds": self.complex_adds,
            "wall_ns": int(round(self.wall_time * 1e9)),
            "reps": self.repetitions,
        }


@dataclass
class ClaimVerdict:
    claim: str
    passed: bool
    record_ids: list = field(default_factory=list)
    details: list = field(default_factory=list)
    warnings: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "claim": self.claim,
            "pass": self.passed,
            "record_ids": self.record_ids,
            "details": self.details,
            "warnings": self.warnings,
        }


@dataclass
class FitResult:
    c: float
    max_rel_residual: float
    passed: bool
    n_points: int
    record_ids: list = field(default_factory=list)


@dataclass
class ScalingReport:
    records: list
    verdicts: list
    skipped: list = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def to_dict(self) -> dict:
        return {
            "records": [r.to_row() for r in self.records],
            "verdicts": [v.to_dict() for v in self.verdicts],
            "skipped": self.skipped,
        }

    def write_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")

    def write_csv(self, path) -> None:
        write_records_csv(self.records, path)


def write_records_csv(records, path) -> None:
    """Records as CSV with columns N, alpha_p, alpha_q, method, mults, adds, wall_ns, reps."""
    fields = ["N", "alpha_p", "alpha_q", "method", "mults", "adds", "wall_ns", "reps"]
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for record in records:
            writer.writerow(record.to_row())


def _min_wall_seconds(run, reps: int) -> float:
    best = None
    for _ in range(reps):
        start = time.perf_counter_ns()
        run()
        elapsed = time.perf_counter_ns() - start
        if best is None or elapsed < best:
            best = elapsed
    return max(best, 1) / 1e9


def _prepare_cell(n, alpha, method, signal):
    """Build the timed closure and take the exact counts (untimed).

    Raises ValueError when the cell cannot run: alpha*N is not an integer,
    the fast path's sizes are not powers of two, or padding would thin.
    """
    _, m = validate_pair(n, alpha)
    if method == "alpha_fft":
        p = fastpath.plan(n, alpha)
        counter = fastpath.OpCounter()
        fastpath.transform_samples(signal.samples, p, counter)
        x = signal.samples

        def run():
            fastpath.transform_samples(x, p)

        return run, counter.complex_mults, counter.complex_adds
    if method == "zeropad_fft":
        padded = baseline.zero_pad(signal, alpha).samples
        p = fastpath.plan(m, DenseFactor(1))
        counter = fastpath.OpCounter()
        fastpath.transform_samples(padded, p, counter)
        x = signal.samples

        def run():
            buffer = np.zeros(m, dtype=np.complex128)
            buffer[:n] = x
            fastpath.transform_samples(buffer, p)

        return run, counter.complex_mults, counter.complex_adds
    # naive: the matrix product performs exactly N*M multiplies and (N-1)*M adds.
    def run():
        oracle.naive_forward(signal, alpha)

    return run, n * m, (n - 1) * m


def run_grid(
    ns,
    alphas,
    methods=("alpha_fft", "zeropad_fft"),
    reps: int = 20,
    naive_reps: int = 3,
    seed: int = 0,
    skipped: list | None = None,
) -> list:
    """Measure every runnable (N, alpha, method) cell of the grid.

    Returns one BenchRecord per runnable cell, in grid order.  A cell whose
    preparation raises ValueError (an invalid pair, or sizes the method
    cannot take) is skipped, not fatal; pass a list through ``skipped`` to
    collect them with the reason.  An unknown method raises ValueError up
    front.  Signals are random complex samples from the unit disk,
    deterministic in ``seed``, so counts are reproducible (they do not
    depend on the data at all) and timings comparable.

    ``naive_reps`` bounds the repetitions of the naive method separately,
    since its quadratic cost makes 20 repeats impractical at large N.
    """
    for method in methods:
        if method not in METHODS:
            raise ValueError(f"unknown method {method!r}")
    rng = np.random.default_rng(seed)
    signals = {n: Signal(random_unit_disk(rng, n)) for n in sorted(set(ns))}

    records = []
    for n in ns:
        for alpha in alphas:
            for method in methods:
                try:
                    run, mults, adds = _prepare_cell(n, alpha, method, signals[n])
                except ValueError as exc:
                    if skipped is not None:
                        skipped.append({"N": n, "alpha_p": alpha.p, "alpha_q": alpha.q,
                                        "method": method, "reason": str(exc)})
                    continue
                cell_reps = min(reps, naive_reps) if method == "naive" else reps
                wall = _min_wall_seconds(run, cell_reps)
                records.append(BenchRecord(n, alpha, method, mults, adds, wall, cell_reps))
    return records


def _log2_int(n: int) -> int:
    return n.bit_length() - 1


def _index_records(records):
    by_cell = {}
    for i, record in enumerate(records):
        by_cell[(record.n, record.alpha, record.method)] = (i, record)
    return by_cell


def check_alpha_gt1_savings(records) -> ClaimVerdict:
    """Exact multiply savings of the direct dense transform over padding.

    For every N carrying both an alpha_fft and a zeropad_fft record at the
    same alpha > 1, the count gap must equal (alpha*N/2) * log2(alpha)
    exactly -- growing in proportion to alpha*N*log(alpha) across the grid.
    """
    by_cell = _index_records(records)
    verdict = ClaimVerdict("alpha_gt1_savings", True)
    for (n, alpha, method), (i, fast) in sorted(by_cell.items(), key=lambda kv: kv[1][0]):
        if method != "alpha_fft" or alpha.p <= alpha.q:
            continue
        padded = by_cell.get((n, alpha, "zeropad_fft"))
        if padded is None:
            continue
        j, pad = padded
        _, m = validate_pair(n, alpha)
        expected = (m // 2) * _log2_int(alpha.p // alpha.q)
        gap = pad.complex_mults - fast.complex_mults
        ok = gap == expected and gap > 0
        verdict.passed &= ok
        verdict.record_ids += [i, j]
        verdict.details.append(
            {"N": n, "alpha": str(alpha), "zeropad_mults": pad.complex_mults,
             "alpha_mults": fast.complex_mults, "gap": gap, "expected_gap": expected,
             "ok": ok}
        )
    if not verdict.details:
        raise IncompleteGridError(
            "no (alpha_fft, zeropad_fft) record pairs with alpha > 1 in the grid"
        )
    return verdict


def check_alpha_lt1_savings(records, min_m: int = 16) -> ClaimVerdict:
    """Exact multiply savings of a shortened spectrum over the full FFT.

    Compares each alpha < 1 alpha_fft record against the alpha = 1 record at
    the same N.  The gap must equal (N/2)*log2(N) - (M/2)*log2(M) exactly
    (M = alpha*N) and is never below the per-level floor (N/2)*log2(1/alpha).
    Cells with M < ``min_m`` are asymptotically meaningless and are flagged
    as warnings instead of judged.
    """
    by_cell = _index_records(records)
    verdict = ClaimVerdict("alpha_lt1_savings", True)
    one = DenseFactor(1)
    for (n, alpha, method), (i, fast) in sorted(by_cell.items(), key=lambda kv: kv[1][0]):
        if method != "alpha_fft" or alpha.p >= alpha.q:
            continue
        full = by_cell.get((n, one, "alpha_fft"))
        if full is None:
            continue
        _, m = validate_pair(n, alpha)
        if m < min_m:
            verdict.warnings.append(
                f"N={n}, alpha={alpha}: alpha*N={m} < {min_m}, excluded from the claim"
            )
            continue
        j, fft_record = full
        expected = (n // 2) * _log2_int(n) - (m // 2) * _log2_int(m)
        floor = (n // 2) * _log2_int(alpha.q // alpha.p)
        gap = fft_record.complex_mults - fast.complex_mults
        ok = gap == expected and gap >= floor
        verdict.passed &= ok
        verdict.record_ids += [i, j]
        verdict.details.append(
            {"N": n, "alpha": str(alpha), "fft_mults": fft_record.complex_mults,
             "alpha_mults": fast.complex_mults, "gap": gap, "expected_gap": expected,
             "floor": floor, "ok": ok}
        )
    if not verdict.details and not verdict.warnings:
        raise IncompleteGridError(
            "need alpha < 1 alpha_fft records plus the alpha = 1 record at the same N"
        )
    return verdict


def fit_complexity(records, residual_limit: float = 0.01) -> FitResult:
    """Least-squares fit of measured multiply counts to c * max(N,M) * log2(min(N,M)).

    Counts are exact, so over any fixed-alpha fast-path grid the fit is
    exact as well: c comes out 1/2 for alpha >= 1 (and alpha/2 for alpha < 1,
    where the spectrum itself is the small dimension) with zero residual.
    A grid produced by a method with different scaling -- the naive
    transform, say -- leaves residuals far beyond ``residual_limit`` and
    fails the fit.  Needs at least four distinct N values.
    """
    ids, features, counts = [], [], []
    for i, record in enumerate(records):
        _, m = validate_pair(record.n, record.alpha)
        small = min(record.n, m)
        if small == 1:
            continue  # log term vanishes; the cell carries no scaling information
        ids.append(i)
        features.append(max(record.n, m) * _log2_int(small))
        counts.append(record.complex_mults)
    if len(set(records[i].n for i in ids)) < 4:
        raise IncompleteGridError("complexity fit needs at least 4 distinct N values")
    f = np.asarray(features, dtype=float)
    y = np.asarray(counts, dtype=float)
    c = float(f @ y / (f @ f))
    residual = float(np.max(np.abs(y - c * f) / y))
    return FitResult(c, residual, residual <= residual_limit, len(ids), ids)


def make_report(records, skipped: list | None = None) -> ScalingReport:
    """Attach every evaluable claim verdict to a set of records.

    Claims whose grid points are absent (say, no alpha < 1 cells were
    requested) are left out rather than failed; the default command-line
    grid exercises all of them.
    """
    verdicts = []
    try:
        verdicts.append(check_alpha_gt1_savings(records))
    except IncompleteGridError:
        pass
    try:
        verdicts.append(check_alpha_lt1_savings(records))
    except IncompleteGridError:
        pass
    fit_groups = {}
    for record in records:
        if record.method == "alpha_fft":
            fit_groups.setdefault(record.alpha, []).append(record)
    for alpha in sorted(fit_groups, key=lambda a: (a.p / a.q, a.p)):
        group = fit_groups[alpha]
        try:
            fit = fit_complexity(group)
        except IncompleteGridError:
            continue
        small_is_m = alpha.p < alpha.q
        expected_c = 0.5 * (alpha.p / alpha.q) if small_is_m else 0.5
        verdicts.append(
            ClaimVerdict(
                claim=f"complexity_fit_alpha_{alpha.p}_{alpha.q}",
                passed=fit.passed,
                record_ids=[records.index(r) for r in group],
                details=[{"c": fit.c, "expected_c": expected_c,
                          "max_rel_residual": fit.max_rel_residual,
                          "n_points": fit.n_points}],
            )
        )
    return ScalingReport(list(records), verdicts, skipped or [])
