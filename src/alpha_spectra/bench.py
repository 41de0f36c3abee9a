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

``make_report`` is the one judge of these claims and of the complexity fits:
a claim whose grid points are absent judges no cell and has no verdict.

Wall times are minima over repetitions of the executors that ``compute`` runs,
as ``baseline.executor`` plans them; plan construction is never timed.  A
grid cell times each executor once, under the name ``compute`` writes for
it, so each claim judges a cell once however the requested methods overlap.
The repetitions of a cell's executors run in interleaved rounds, so a drift
in the host's speed reaches all of their minima alike.
"""

import csv
import functools
import json
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import baseline, fastpath
from .core import DenseFactor, Signal, distinct, validate_pair
from .io import open_output
from .verify import random_unit_disk

#: Repetitions of a naive cell at most: its quadratic cost makes 20 impractical at large N.
NAIVE_REPS = 3

#: Smallest alpha*N judged by the alpha < 1 claim; smaller spectra only warn.
MIN_LT1_BINS = 16

#: Largest relative residual a complexity fit passes with, and largest
#: relative gap between its fitted c and the expected constant.
FIT_RESIDUAL_LIMIT = 0.01


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
        validate_pair(self.n, self.alpha)  # a pair no transform takes has no record
        labels = [name for name in baseline.METHODS if name != "auto"]  # what executors run
        if self.method not in labels:
            raise ValueError(f"unknown method {self.method!r} (choose from {', '.join(labels)})")
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
        """The fields in order, with ``passed`` written as ``pass``."""
        return {"pass" if key == "passed" else key: value for key, value in asdict(self).items()}


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
        """The report as indented JSON; a write that raises removes the file."""
        with open_output(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")

    def write_csv(self, path) -> None:
        """Records as CSV with columns N, alpha_p, alpha_q, method, mults, adds, wall_ns, reps.

        A write that raises removes the file, as in write_json.
        """
        fields = ["N", "alpha_p", "alpha_q", "method", "mults", "adds", "wall_ns", "reps"]
        with open_output(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=fields, lineterminator="\n")
            writer.writeheader()
            for record in self.records:
                writer.writerow(record.to_row())


def run_grid(
    ns,
    alphas,
    methods=("fft", "zeropad"),
    reps: int = 20,
    seed: int = 0,
    skipped: list | None = None,
) -> list:
    """Measure every runnable (N, alpha, method) cell of the grid.

    Returns one BenchRecord per executor that a cell runs, in grid order,
    labelled with the method ``baseline.executor`` runs (``auto`` as ``fft``
    or ``naive``), its exact counts taken from one untimed run.  A method
    that ``executor`` refuses with ValueError (an invalid pair, or sizes it
    cannot take) or whose executor the cell already timed (``fft`` after
    ``auto``) is skipped, not fatal; pass a list through ``skipped`` to
    collect the skips with the reason.  An unknown method, an N or alpha
    given twice (compared as values, so ``DenseFactor(2)`` and
    ``DenseFactor(2, 1)`` repeat) or ``reps`` below 1 raises ValueError up
    front.  Signals are random complex samples from the unit disk, drawn
    only for an N with a runnable cell and deterministic in ``seed``, so
    counts are reproducible (they do not depend on the data at all) and
    timings comparable.  Each wall is the minimum over ``reps`` rounds
    (NAIVE_REPS at most for the naive method); a round runs every executor
    of the cell whose repetitions are not yet done, in method order.
    """
    for method in methods:
        baseline.check_method(method)
    ns, alphas = distinct(ns, "N"), distinct(alphas, "alpha")
    if reps < 1:
        raise ValueError(f"reps must be at least 1, got {reps!r}")
    rng = np.random.default_rng(seed)
    signal_of = functools.cache(lambda n: Signal(random_unit_disk(rng, n)))

    records = []
    for n in ns:
        for alpha in alphas:
            timed = {}  # label -> the method that timed it at this cell
            cell = []  # (label, run, mults, adds, reps) per executor, in method order
            for method in methods:
                try:
                    run, name = baseline.executor(n, alpha, method)
                    if name in timed:
                        raise ValueError(f"{name} is timed at this cell already, as {timed[name]}")
                except ValueError as exc:
                    if skipped is not None:
                        skipped.append({"N": n, "alpha_p": alpha.p, "alpha_q": alpha.q,
                                        "method": method, "reason": str(exc)})
                    continue
                timed[name] = method
                signal = signal_of(n)
                if name == "naive":
                    m = n * alpha.p // alpha.q
                    # The matrix product performs exactly N*M multiplies and (N-1)*M adds.
                    mults, adds, cell_reps = n * m, (n - 1) * m, min(reps, NAIVE_REPS)
                else:
                    counter = fastpath.OpCounter()
                    run(signal, counter)
                    mults, adds, cell_reps = counter.complex_mults, counter.complex_adds, reps
                cell.append((name, run, mults, adds, cell_reps))
            # The host's speed drifts over stretches of about 100 ms: each round
            # runs every executor once, so their minima see the same stretches.
            walls = [[] for _ in cell]
            for round_no in range(max((entry[4] for entry in cell), default=0)):
                for (_, run, _, _, cell_reps), wall in zip(cell, walls):
                    if round_no < cell_reps:
                        start = time.perf_counter_ns()
                        run(signal)
                        wall.append(time.perf_counter_ns() - start)
            records += [BenchRecord(n, alpha, name, mults, adds, max(min(wall), 1) / 1e9, cell_reps)
                        for (name, _, mults, adds, cell_reps), wall in zip(cell, walls)]
    return records


def _log2_int(n: int) -> int:
    return n.bit_length() - 1


def _gt1_savings(records) -> ClaimVerdict | None:
    """Exact multiply savings of the direct dense transform over padding.

    Each fft record at alpha > 1 with a zeropad record at the same
    (N, alpha) is judged, in record order: the count gap must equal
    (alpha*N/2) * log2(alpha) exactly -- growing in proportion to
    alpha*N*log(alpha) across the grid.  None when no pair is judged.
    """
    by_cell = {(r.n, r.alpha, r.method): i for i, r in enumerate(records)}
    verdict = ClaimVerdict("alpha_gt1_savings", True)
    for i, fast in enumerate(records):
        n, alpha = fast.n, fast.alpha
        j = by_cell.get((n, alpha, "zeropad"))
        if fast.method != "fft" or alpha.p <= alpha.q or j is None:
            continue
        pad = records[j]
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
    return verdict if verdict.details else None


def _lt1_savings(records) -> ClaimVerdict | None:
    """Exact multiply savings of a shortened spectrum over the full FFT.

    Compares each alpha < 1 fft record, in record order, against the
    alpha = 1 record at the same N.  The gap must equal (N/2)*log2(N) -
    (M/2)*log2(M) exactly (M = alpha*N) and is never below the per-level
    floor (N/2)*log2(1/alpha).  Cells with M < MIN_LT1_BINS are
    asymptotically meaningless and are flagged as warnings instead of
    judged; with no cell judged, there is no verdict (None), not a pass.
    """
    by_cell = {(r.n, r.alpha, r.method): i for i, r in enumerate(records)}
    verdict = ClaimVerdict("alpha_lt1_savings", True)
    for i, fast in enumerate(records):
        n, alpha = fast.n, fast.alpha
        j = by_cell.get((n, DenseFactor(1), "fft"))
        if fast.method != "fft" or alpha.p >= alpha.q or j is None:
            continue
        _, m = validate_pair(n, alpha)
        if m < MIN_LT1_BINS:
            verdict.warnings.append(
                f"N={n}, alpha={alpha}: alpha*N={m} < {MIN_LT1_BINS}, excluded from the claim"
            )
            continue
        fft_record = records[j]
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
    return verdict if verdict.details else None


def _fit(records, ids) -> ClaimVerdict | None:
    """Judge one density's multiply counts against c * max(N,M) * log2(min(N,M)).

    The records ``records[i]`` for i in ``ids`` share one alpha; ``ids``
    become the verdict's record_ids.  The verdict passes when the
    least-squares c is the paper's constant (1/2 for alpha >= 1, alpha/2 for
    alpha < 1) and every count is c times its feature, each to within a
    relative FIT_RESIDUAL_LIMIT.  Exact fast-path counts pass with zero
    residual; the naive transform's counts and doubled ones (c = 1) fail.
    Cells with min(N, M) = 1 carry no scaling information and stay out of
    the fit.  None below four distinct N values.
    """
    features, counts, sizes = [], [], set()
    for i in ids:
        record = records[i]
        _, m = validate_pair(record.n, record.alpha)
        small = min(record.n, m)
        if small > 1:
            sizes.add(record.n)
            features.append(max(record.n, m) * _log2_int(small))
            counts.append(record.complex_mults)
    if len(sizes) < 4:
        return None
    alpha = records[ids[0]].alpha
    f = np.asarray(features, dtype=float)
    y = np.asarray(counts, dtype=float)
    c = float(f @ y / (f @ f))
    residual = float(np.max(np.abs(y - c * f) / y))
    expected_c = 0.5 * (alpha.p / alpha.q) if alpha.p < alpha.q else 0.5
    c_ok = abs(c - expected_c) <= FIT_RESIDUAL_LIMIT * expected_c
    return ClaimVerdict(
        claim=f"complexity_fit_alpha_{alpha.p}_{alpha.q}",
        passed=residual <= FIT_RESIDUAL_LIMIT and c_ok,
        record_ids=ids,
        details=[{"c": c, "expected_c": expected_c, "max_rel_residual": residual,
                  "n_points": len(features)}],
    )


def make_report(records, skipped: list | None = None) -> ScalingReport:
    """Judge every claim that ``records`` hold a cell for.

    This is the one claim judge.  Its verdicts come in a fixed order: the
    alpha > 1 savings, the alpha < 1 savings, then one complexity fit per
    alpha of the fft records, in ascending alpha, each with record_ids into
    ``records``.  A claim that judges no cell (say, no alpha < 1 cells were
    requested, or a density has fewer than four N values) is left out
    rather than failed; the default command-line grid exercises all of them.
    """
    fit_groups = {}
    for i, record in enumerate(records):
        if record.method == "fft":
            fit_groups.setdefault(record.alpha, []).append(i)
    verdicts = [_gt1_savings(records), _lt1_savings(records)] + [
        _fit(records, fit_groups[alpha])
        for alpha in sorted(fit_groups, key=lambda a: (a.p / a.q, a.p))]
    return ScalingReport(list(records), [v for v in verdicts if v is not None], skipped or [])
