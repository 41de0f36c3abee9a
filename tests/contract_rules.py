"""The command line's contract, written once as rules that the tests read.

``expected(n, alpha, method)`` is the exit code that ``compute`` gives at N
samples and density alpha, and the ``# method=`` label of the executor
that runs.  It follows from the rules written here, never from
``baseline.executor``, so a change to what a method accepts shows as failing
tests until the rule here changes with it.  ``auto_label`` is the rule for
what ``auto`` runs: changing ``auto`` is one edit there, and every test that
pins a label, an exit code, a count or a bin of ``auto`` follows it.

The library raises ``EXCEPTIONS[code]`` where ``compute`` exits with
``code``.  ``reference_bins`` and ``expected_mults`` give a label's bins and
multiply count without ``executor``.  ``bench_cell`` is what ``bench`` times
at one grid cell.  ``bench_outcome``, ``verify_outcome`` and
``demo_outcome`` give those commands' exit code from the text of their flags.
``run_grid_refusals``, ``grid_cell``, ``verify_cases`` and ``sine_demo_refusal``
give what the library calls behind them, ``bench.run_grid``,
``verify.run_all`` and ``demo.sine_demo``, refuse, skip and check.
"""

from fractions import Fraction

import numpy as np

from alpha_spectra import (
    DenseFactor,
    IncompatibleAlphaError,
    TooManyBinsError,
    UnsupportedSizeError,
    alpha_fft,
    cli,
    naive_forward,
    plan,
    predicted_mults,
    transform_samples,
)
from alpha_spectra.bench import MIN_LT1_BINS, NAIVE_REPS
from alpha_spectra.core import MAX_BINS
from alpha_spectra.verify import KERNEL_ALPHAS, SEEDS_PER_CASE, SWEEPS

METHODS = ("auto", "fft", "naive", "zeropad")

#: The exception the library raises where ``compute`` exits with the code.
EXCEPTIONS = {
    cli.EXIT_BAD_ALPHA: IncompatibleAlphaError,
    cli.EXIT_BAD_SIZE: UnsupportedSizeError,
    cli.EXIT_NOT_REPRESENTABLE: TooManyBinsError,
}


def power_of_two(value):
    return value.denominator == 1 and value >= 1 and (value.numerator & (value.numerator - 1)) == 0


def kernel_takes(n, m):
    """Whether the radix-2 kernel runs at N samples and alpha*N = m bins."""
    return power_of_two(Fraction(n)) and power_of_two(Fraction(m))


def auto_label(n, m):
    """The method ``auto`` runs at N samples and alpha*N = m bins."""
    return "fft" if kernel_takes(n, m) else "naive"


def expected(n, alpha, method):
    """(exit code, method label) that ``compute`` gives at (N, alpha) with ``method``."""
    alpha = Fraction(str(alpha))  # "3/2", 2 or a DenseFactor
    m = alpha * n
    if method == "zeropad" and alpha < 1:
        return cli.EXIT_BAD_ALPHA, None  # refused before the pair is checked
    if m.denominator != 1:
        return cli.EXIT_BAD_ALPHA, None
    if m > MAX_BINS:
        return cli.EXIT_NOT_REPRESENTABLE, None
    if method == "fft" and not kernel_takes(n, m):
        return cli.EXIT_BAD_SIZE, None
    if method == "zeropad" and not power_of_two(m):
        return cli.EXIT_BAD_SIZE, None
    if method == "auto":
        return cli.EXIT_OK, auto_label(n, m)
    return cli.EXIT_OK, method


def _density(alpha):
    alpha = Fraction(str(alpha))
    return DenseFactor(alpha.numerator, alpha.denominator)


def reference_bins(label, signal, alpha):
    """The bins of the executor named ``label`` for ``signal``, computed without ``executor``."""
    n, alpha = len(signal), _density(alpha)
    if label == "fft":
        return alpha_fft(signal, plan(n, alpha)).bins
    if label == "naive":
        return naive_forward(signal, alpha).bins
    assert label == "zeropad", label
    m = n * alpha.p // alpha.q
    padded = np.concatenate([signal.samples, np.zeros(m - n)])
    return transform_samples(padded, plan(m, DenseFactor(1)))


def expected_mults(label, n, alpha):
    """The complex multiplies that ``bench`` records for ``label`` at (N, alpha)."""
    alpha = _density(alpha)
    m = n * alpha.p // alpha.q
    if label == "naive":
        return n * m  # the matrix product's, one per matrix entry
    return predicted_mults(plan(n, alpha) if label == "fft" else plan(m, DenseFactor(1)))


def expected_reps(label, reps):
    """The repetitions that ``bench`` times ``label`` for when asked for ``reps``."""
    return min(reps, NAIVE_REPS) if label == "naive" else reps


def grid_cell(n, alpha, methods):
    """(labels, skips) of one ``bench.run_grid`` cell.

    ``labels`` holds the label of each method that ``compute`` runs at
    (N, alpha), once each, in method order.  ``skips`` holds (method,
    reason) for every other method, in method order.  The reason is None
    where ``compute`` refuses the method: the skip carries the library's
    refusal text.  Otherwise an earlier method timed the label, and the
    reason names that method.
    """
    timed, skips = {}, []
    for method in methods:
        code, label = expected(n, alpha, method)
        if code != cli.EXIT_OK:
            skips.append((method, None))
        elif label in timed:
            skips.append((method, f"{label} is timed at this cell already, as {timed[label]}"))
        else:
            timed[label] = method
    return list(timed), skips


def bench_cell(n, alpha, methods):
    """(labels, repeats) of one ``bench`` cell.

    ``repeats`` holds ``grid_cell``'s skips of a label that an earlier
    method timed.
    """
    labels, skips = grid_cell(n, alpha, methods)
    return labels, [(method, reason) for method, reason in skips if reason]


# ------------------------------------------------------------- list flags
# A list flag takes comma-separated items and drops empty ones.  It refuses
# an empty list, an item it cannot read and a value given twice, compared as
# read, with exit 2 and one error line.  An integer is ASCII digits after an
# optional sign, amid whitespace: not ``1_0`` or the digits of other scripts,
# which int() alone reads.

def _integer(text):
    """The int of ``text``, ASCII digits after an optional sign amid whitespace, or None."""
    body = text.strip()
    digits = body[1:] if body.startswith(("+", "-")) else body
    return int(body) if digits.isascii() and digits.isdigit() else None


def _integers_from(low, high=MAX_BINS):
    def read(text):
        value = _integer(text)
        return value if value is not None and low <= value <= high else None
    return read


def _alpha(text):
    numbers = [_integer(part) for part in text.split("/")]
    if len(numbers) > 2 or None in numbers:
        return None
    return Fraction(*numbers) if min(numbers) >= 1 else None


def _method(text):
    return text if text in METHODS else None


def read_list(text, read):
    """The values of a list flag's ``text``, or None where the flag refuses it."""
    values = [read(part.strip()) for part in text.split(",") if part.strip()]
    if not values or None in values or len(set(values)) < len(values):
        return None
    return values


def bench_outcome(grid_n, grid_alpha, methods):
    """(exit code, "error", "warning" or None) of ``bench`` with these flag texts.

    A grid with no runnable cell is exit 2.  Otherwise the claims hold, so
    the exit is 0.  It prints a warning when no claim judges a cell, or when
    the alpha < 1 claim judges a cell and leaves out one of fewer than
    MIN_LT1_BINS bins.
    """
    ns, alphas = read_list(grid_n, _integers_from(1)), read_list(grid_alpha, _alpha)
    methods = read_list(methods, _method)
    if ns is None or alphas is None or methods is None:
        return cli.EXIT_PARSE_ERROR, "error"
    labels = {(n, alpha): bench_cell(n, alpha, methods)[0] for n in ns for alpha in alphas}
    if not any(labels.values()):
        return cli.EXIT_PARSE_ERROR, "error"
    fft = {cell for cell, names in labels.items() if "fft" in names}
    gt1 = any(alpha > 1 and "zeropad" in labels[n, alpha] for n, alpha in fft)
    lt1 = [n * alpha >= MIN_LT1_BINS for n, alpha in fft if alpha < 1 and (n, 1) in fft]
    fit = any(len({n for n, a in fft if a == alpha and min(n, n * alpha) > 1}) >= 4
              for alpha in alphas)
    warns = not (gt1 or any(lt1) or fit) or (any(lt1) and not all(lt1))
    return cli.EXIT_OK, "warning" if warns else None


def verify_outcome(sizes, seed):
    """(exit code, "error" or None) of ``verify`` with these flag texts.

    The round-trip suite runs the oracle at alpha = 1, which every N takes,
    so some suite checks a case at any sizes the flag reads, and it passes.
    """
    if read_list(sizes, _integers_from(1)) is None or _integers_from(0)(seed) is None:
        return cli.EXIT_PARSE_ERROR, "error"
    return cli.EXIT_OK, None


def demo_outcome(n, alphas):
    """(exit code, "error" or None) of ``demo-sine`` with these flag texts.

    It runs ``auto`` at each density before it writes anything, so the first
    density that ``compute`` refuses at N gives the exit code.
    """
    n, alphas = _integers_from(2)(n), read_list(alphas, _alpha)
    if n is None or alphas is None:
        return cli.EXIT_PARSE_ERROR, "error"
    for alpha in alphas:
        code = expected(n, alpha, "auto")[0]
        if code != cli.EXIT_OK:
            return code, "error"
    return cli.EXIT_OK, None


# ---------------------------------------------------------- library calls
# ``bench.run_grid``, ``verify.run_all`` and ``demo.sine_demo`` refuse a value
# given twice, compared as values, with a ValueError that names it; an N is
# named as written and a density as p/q.

def given_twice(name, values):
    """The ValueError text for the first value of ``values`` that repeats, or None."""
    seen = []
    for value in values:
        value = _density(value) if name == "alpha" else value
        if value in seen:
            return f"{name} {value} given twice"
        seen.append(value)
    return None


def run_grid_refusals(ns, alphas, methods, reps):
    """The ValueError texts ``bench.run_grid`` may raise up front, empty when it runs.

    It refuses an unknown method, an N or alpha given twice and ``reps``
    below 1.  Where several apply, any one of them may be the one raised.
    """
    texts = [f"unknown method {method!r} (choose from {', '.join(METHODS)})"
             for method in methods if method not in METHODS]
    texts += [text for text in (given_twice("N", ns), given_twice("alpha", alphas)) if text]
    if reps < 1:
        texts.append(f"reps must be at least 1, got {reps!r}")
    return texts


def verify_cases(sizes):
    """Suite name -> the cases ``verify.run_all`` checks at ``sizes``, a list without repeats.

    A random-signal suite scores SEEDS_PER_CASE signals at each (N, alpha) of
    its densities that all of its methods take.  The orthogonality suite
    checks 2N - 1 offsets at each valid (N, alpha) of KERNEL_ALPHAS with
    N <= 64.  Every suite passes, and one with no case prints SKIP.
    """
    def takes(n, alpha, methods):
        return all(expected(n, alpha, method)[0] == cli.EXIT_OK for method in methods)

    cases = {sweep.name: SEEDS_PER_CASE * sum(takes(n, alpha, sweep.methods)
                                              for n in sizes for alpha in sweep.alphas)
             for sweep in SWEEPS}
    cases["orthogonality"] = sum(2 * n - 1 for n in sizes if n <= 64
                                 for alpha in KERNEL_ALPHAS if takes(n, alpha, ["naive"]))
    return cases


def sine_demo_refusal(n, alphas):
    """None when ``demo.sine_demo(n, alphas)`` returns a curve per density.

    Else (exception class, its text), or (exception class, the density)
    where ``compute`` refuses a density: then the text is the library's
    refusal of ``auto`` at (N, density).

    A density given twice is refused first.  Then each density runs
    ``auto`` in order, so the first that ``compute`` refuses at N raises
    there.  At N = 1 the half-sine is zero, and its zero DC magnitude
    cannot normalize a curve.
    """
    repeat = given_twice("alpha", alphas)
    if repeat:
        return ValueError, repeat
    for alpha in alphas:
        code = expected(n, alpha, "auto")[0]
        if code != cli.EXIT_OK:
            return EXCEPTIONS[code], alpha
        if n == 1:
            return ValueError, "cannot normalize a spectrum with zero DC magnitude"
    return None
