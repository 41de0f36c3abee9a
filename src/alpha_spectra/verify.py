"""Cross-checking suites tying the transform implementations together.

Each suite sweeps a deterministic grid of sizes, densities and seeds,
records the worst error it sees and where, and compares against a fixed
tolerance.  The four random-signal suites are rows of one table (SWEEPS)
run by one function, run_sweep; the orthogonality suite sweeps kernel
offsets instead of signals and keeps its own loop.  A suite runs its
methods by ``baseline.executor``, as ``compute`` does, skipping each pair
an executor refuses.  The suites are what the ``verify`` subcommand runs.
"""

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .baseline import aliased_reconstruct, executor
from .core import DenseFactor, Signal, distinct, validate_pair
from .oracle import naive_inverse, orthogonality_kernel

DEFAULT_SIZES = (2, 4, 8, 16, 32, 64)
#: Random signals per (N, alpha) pair in each random-signal suite.
SEEDS_PER_CASE = 3

#: Density grids per suite; filtered per N by pair validity.
POWER_ALPHAS = tuple(
    DenseFactor(p, q) for p, q in [(1, 8), (1, 4), (1, 2), (1, 1), (2, 1), (4, 1), (8, 1)]
)
PAD_ALPHAS = tuple(DenseFactor(p) for p in (1, 2, 4, 8))
RECOVER_ALPHAS = tuple(DenseFactor(p) for p in (1, 2, 4))
FOLD_ALPHAS = tuple(DenseFactor(1, q) for q in (2, 4, 8))
KERNEL_ALPHAS = tuple(
    DenseFactor(p, q) for p, q in [(1, 4), (1, 2), (1, 1), (2, 1), (4, 1)]
)


@dataclass
class SuiteResult:
    name: str
    max_error: float
    tolerance: float
    passed: bool
    worst: dict = field(default_factory=dict)
    cases: int = 0


def random_unit_disk(rng, n: int) -> np.ndarray:
    """n complex samples uniform on the closed unit disk."""
    radius = np.sqrt(rng.uniform(0.0, 1.0, n))
    angle = rng.uniform(0.0, 2.0 * np.pi, n)
    return radius * np.exp(1j * angle)


def _oracle_error(signal, alpha, fast, naive):
    reference = naive(signal)
    scale = np.max(np.abs(reference.bins))
    return float(np.max(np.abs(fast(signal).bins - reference.bins)) / scale)


def _zero_pad_error(signal, alpha, fast, padded):
    return float(np.max(np.abs(fast(signal).bins - padded(signal).bins)))


def _round_trip_error(signal, alpha, naive):
    """inverse(forward(x)) against x (alpha >= 1) or its alias fold (alpha < 1)."""
    expected = signal.samples if alpha.p >= alpha.q else aliased_reconstruct(signal, alpha)
    recovered = naive_inverse(naive(signal))
    return float(np.max(np.abs(recovered.samples - expected)))


@dataclass(frozen=True)
class Sweep:
    """One random-signal suite: its pairs, the methods it runs and how it scores one signal."""

    name: str
    alphas: tuple
    tolerance: float
    methods: tuple  # ``executor`` methods; a pair any of them refuses is skipped
    error: Callable  # (signal, alpha, *runs) -> the error held under ``tolerance``


SWEEPS = (
    # Fast path against the naive transform, relative max error.
    Sweep("oracle_equivalence", POWER_ALPHAS, 1e-10, ("fft", "naive"), _oracle_error),
    # Density-alpha transform against the padded FFT, absolute per bin.
    Sweep("zero_pad_equivalence", PAD_ALPHAS, 1e-12, ("fft", "zeropad"), _zero_pad_error),
    # inverse(forward(x)) recovers x exactly when alpha >= 1.
    Sweep("round_trip", RECOVER_ALPHAS, 1e-10, ("naive",), _round_trip_error),
    # inverse(forward(x)) equals the time-domain alias fold when alpha < 1.
    Sweep("aliasing", FOLD_ALPHAS, 1e-10, ("naive",), _round_trip_error),
)


def _result(name, tolerance, measurements) -> SuiteResult:
    """Reduce (error, where) pairs to the worst error and the case that produced it."""
    worst_error, worst, cases = 0.0, {}, 0
    for error, where in measurements:
        if error > worst_error:
            worst_error, worst = error, where
        cases += 1
    return SuiteResult(name, worst_error, tolerance, worst_error <= tolerance, worst, cases)


def run_sweep(sweep: Sweep, seed=0, sizes=DEFAULT_SIZES) -> SuiteResult:
    """Score ``SEEDS_PER_CASE`` random unit-disk signals per covered (N, alpha)."""

    def measurements():
        for n in sizes:
            for alpha in sweep.alphas:
                try:
                    runs = [executor(n, alpha, method)[0] for method in sweep.methods]
                except ValueError:
                    continue
                for offset in range(SEEDS_PER_CASE):
                    case_seed = seed + 1000 * offset + n
                    signal = Signal(random_unit_disk(np.random.default_rng(case_seed), n))
                    where = {"N": n, "alpha": str(alpha), "seed": case_seed}
                    yield sweep.error(signal, alpha, *runs), where

    return _result(sweep.name, sweep.tolerance, measurements())


def suite_orthogonality(sizes=DEFAULT_SIZES) -> SuiteResult:
    """The inverse-forward kernel is 1 on the alpha*N comb and ~0 off it.

    It checks the 2N - 1 offsets of each valid (N, alpha) of KERNEL_ALPHAS
    with N <= 64.
    """

    def measurements():
        for n in sizes:
            if n > 64:
                continue  # quadratic in N; small sizes already cover every residue class
            for alpha in KERNEL_ALPHAS:
                try:
                    _, m = validate_pair(n, alpha)
                except ValueError:
                    continue
                for delta in range(-(n - 1), n):
                    value = orthogonality_kernel(delta, 0, n, alpha)
                    on_comb = delta % m == 0
                    error = abs(value - 1.0) if on_comb else abs(value)
                    yield error, {"N": n, "alpha": str(alpha), "delta": delta}

    return _result("orthogonality", 1e-12, measurements())


def run_all(seed=0, sizes=DEFAULT_SIZES) -> list:
    """Run every suite; ValueError when a size repeats, which would check its cases twice."""
    sizes = distinct(sizes, "N")
    return [run_sweep(sweep, seed, sizes) for sweep in SWEEPS] + [suite_orthogonality(sizes)]
