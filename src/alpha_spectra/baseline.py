"""Executors for every method (``executor``); the classical paths: zero-padded FFT, alias folding.

Appending (alpha-1)*N zeros and running an ordinary alpha*N-point FFT
produces bin-for-bin the same spectrum as the direct density-alpha
transform -- padding buys resolution, not information: with the sample
interval kept, the padded record lasts alpha*T, so its bins m/(alpha*T) are
the density-alpha bins.  ``executor``'s ``zeropad`` method, the one padded
FFT, reuses the fast kernel at alpha = 1 so its operation counts follow the
identical convention and the two methods compare like for like:
(alpha*N/2)*log2(alpha*N) multiplies against (alpha*N/2)*log2(N).

For alpha < 1 the matching time-domain picture is folding: the inverse of a
shortened spectrum returns x'_n = sum_k x_{n+k*alpha*N}.  ``_pad_or_fold``
writes both pictures once: the bins are the alpha*N-point FFT of the samples
padded or folded into alpha*N slots, and the fold gives the round trip.
"""

import numpy as np

from . import fastpath, oracle
from .core import (
    DenseFactor,
    IncompatibleAlphaError,
    Signal,
    Spectrum,
    UnsupportedSizeError,
    bin_frequency,
    is_power_of_two,
    validate_pair,
)

#: What ``executor`` runs: ``auto`` is ``fft`` where the pair allows it, else ``naive``.
METHODS = ("auto", "fft", "naive", "zeropad")


def executor(n: int, alpha: DenseFactor, method: str = "auto"):
    """The one executor table: check and plan ``method`` at (N, alpha), return ``(run, name)``.

    ``run(signal, counter=None)`` transforms a signal of N samples only; ``naive`` counts nothing.
    ``fft`` raises UnsupportedSizeError where the fast kernel cannot run and
    ``auto`` picks ``naive``; ``zeropad`` needs alpha >= 1 and a power-of-two alpha*N.
    ``run`` alone refuses a spectrum a double cannot hold, by OverflowError and no numpy warning:
    a bin not finite, a frequency m/(alpha*T) past a double, or an alpha*T past one (all at 0 Hz).
    """
    transform, name = _transform(n, alpha, method)

    def run(signal, counter=None):
        if len(signal) != n:
            raise ValueError(f"plan is for N={n}, got {len(signal)} samples")
        with np.errstate(over="ignore", invalid="ignore"):
            spectrum = transform(signal, counter)
            # On the (re, im) float64 view: half the time of np.isfinite on complex bins.
            finite = np.isfinite(spectrum.bins.view(np.float64))
            if not finite.all():
                raise OverflowError(
                    f"bin {np.argmin(finite) // 2} is not finite: the spectrum overflows a double")
            # Frequencies rise with the bin index: if the last one is finite, all are.
            if not np.isfinite(bin_frequency(spectrum.m - 1, alpha, signal.duration)):
                bad = np.flatnonzero(~np.isfinite(spectrum.frequencies))
                raise OverflowError(
                    f"frequency of bin {bad[0]} is not finite: 1/(alpha*T) overflows a double")
            if spectrum.m > 1 and bin_frequency(1, alpha, signal.duration) == 0:
                raise OverflowError("frequency of bin 1 is 0: alpha*T overflows a double")
        return spectrum

    return run, name


def _transform(n: int, alpha: DenseFactor, method: str):
    """``(transform(signal, counter), name)``: ``method`` checked and planned at (N, alpha)."""
    if check_method(method) == "zeropad":
        if alpha.p < alpha.q:  # refused before the pair is checked, whatever N is
            raise IncompatibleAlphaError(f"zero-padding needs alpha >= 1, got {alpha}")
        m = validate_pair(n, alpha)[1]
        if not is_power_of_two(m):
            raise UnsupportedSizeError(
                f"zero-padding needs a power-of-two alpha*N, got N={n}, "
                f"alpha*N={m}; use the naive transform for this pair"
            )
        p = fastpath.plan(m, DenseFactor(1))

        def zeropad(signal, counter):
            bins = fastpath.transform_samples(_pad_or_fold(signal.samples, m), p, counter)
            return Spectrum._adopt(bins, n, alpha, signal.duration)

        return zeropad, "zeropad"
    if method != "naive":
        try:
            p = fastpath.plan(n, alpha)
            return (lambda signal, counter: fastpath.alpha_fft(signal, p, counter)), "fft"
        except UnsupportedSizeError:
            if method == "fft":
                raise
    validate_pair(n, alpha)
    return (lambda signal, counter: oracle.naive_forward(signal, alpha)), "naive"


def check_method(method: str) -> str:
    """``method``, or ValueError naming it and METHODS: the one refusal of an unknown method."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r} (choose from {', '.join(METHODS)})")
    return method


def aliased_reconstruct(signal: Signal, alpha: DenseFactor) -> np.ndarray:
    """Time-domain alias sum x'_n = sum_{k : 0 <= n+k*alpha*N < N} x_{n+k*alpha*N}.

    Defined for alpha < 1 with integer M = alpha*N.  The result has period M;
    entries for n >= M follow that periodic extension, matching what the
    inverse of a density-alpha spectrum returns slot for slot.
    """
    n, m = validate_pair(len(signal), alpha)
    if alpha.p >= alpha.q:
        raise ValueError(f"alias folding needs alpha < 1, got {alpha}")
    return _pad_or_fold(signal.samples, m)[np.arange(n) % m]


def _pad_or_fold(samples: np.ndarray, m: int) -> np.ndarray:
    """``samples`` in zeros of length ceil(N/m)*m; folded into ``m`` slots by row sums when m < N."""
    n = len(samples)
    slots = np.zeros(-(-n // m) * m, dtype=np.complex128)
    slots[:n] = samples
    return slots.reshape(-1, m).sum(axis=0) if m < n else slots
