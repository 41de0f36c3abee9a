"""Method choice (``transform``) and the classical paths: zero-padded FFT, alias folding.

Appending (alpha-1)*N zeros and running an ordinary alpha*N-point FFT
produces bin-for-bin the same spectrum as the direct density-alpha
transform -- padding buys resolution, not information.  The padded FFT here
reuses the fast kernel at alpha = 1 so its operation counts follow the
identical convention and the two methods compare like for like:
(alpha*N/2)*log2(alpha*N) multiplies against (alpha*N/2)*log2(N).

For alpha < 1 the matching time-domain picture is folding: the inverse of a
shortened spectrum returns x'_n = sum_k x_{n+k*alpha*N}, reproduced here
directly so the round trip can be checked without any transform.
"""

import numpy as np

from . import fastpath, oracle
from .core import (
    DenseFactor,
    Signal,
    Spectrum,
    UnsupportedSizeError,
    is_power_of_two,
    validate_pair,
)

#: What ``transform`` runs: ``auto`` is ``fft`` where the pair allows it, else ``naive``.
METHODS = ("auto", "fft", "naive", "zeropad")


def transform(signal: Signal, alpha: DenseFactor, method: str = "auto") -> tuple[Spectrum, str]:
    """The density-alpha spectrum of ``signal`` by ``method``, and the executor that ran.

    The only code that picks and runs an executor.  ``fft`` raises
    UnsupportedSizeError for a pair the fast kernel cannot take, where
    ``auto`` runs the oracle; ``zeropad`` needs alpha >= 1 and a power-of-two alpha*N.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r} (choose from {', '.join(METHODS)})")
    if method == "naive":
        return oracle.naive_forward(signal, alpha), "naive"
    if method == "zeropad":
        padded = zero_pad(signal, alpha)
        if not is_power_of_two(len(padded)):
            raise UnsupportedSizeError(
                f"zero-padding needs a power-of-two alpha*N, got N={len(signal)}, "
                f"alpha*N={len(padded)}; use the naive transform for this pair"
            )
        bins = standard_fft(padded).bins
        return Spectrum._adopt(bins, len(signal), alpha, signal.duration), "zeropad"
    try:
        return fastpath.alpha_fft(signal, fastpath.plan(len(signal), alpha)), "fft"
    except UnsupportedSizeError:
        if method == "fft":
            raise
        return oracle.naive_forward(signal, alpha), "naive"


def zero_pad(signal: Signal, alpha: DenseFactor) -> Signal:
    """``signal`` extended to alpha*N samples with a zero tail (alpha >= 1 only).

    Keeping the sample interval fixed, padding stretches the duration to
    alpha*T, which is exactly what lines the padded FFT bins up with the
    density-alpha bins: m/(padded T) == m/(alpha*T).
    """
    n, m = validate_pair(len(signal), alpha)
    if alpha.p < alpha.q:
        raise ValueError(f"zero-padding needs alpha >= 1, got {alpha}")
    padded = np.zeros(m, dtype=np.complex128)
    padded[:n] = signal.samples
    return Signal(padded, signal.duration * (alpha.p / alpha.q))


def standard_fft(signal: Signal, counter: fastpath.OpCounter | None = None) -> Spectrum:
    """Ordinary power-of-two FFT, run through the fast kernel at alpha = 1.

    Counts land in ``counter`` under the shared convention, so they are
    directly comparable with any density-alpha run.
    """
    return fastpath.alpha_fft(signal, fastpath.plan(len(signal), DenseFactor(1)), counter)


def aliased_reconstruct(signal: Signal, alpha: DenseFactor) -> np.ndarray:
    """Time-domain alias sum x'_n = sum_{k : 0 <= n+k*alpha*N < N} x_{n+k*alpha*N}.

    Defined for alpha < 1 with integer M = alpha*N.  The result has period M;
    entries for n >= M follow that periodic extension, matching what the
    inverse of a density-alpha spectrum returns slot for slot.
    """
    n, m = validate_pair(len(signal), alpha)
    if alpha.p >= alpha.q:
        raise ValueError(f"alias folding needs alpha < 1, got {alpha}")
    residues = np.arange(n) % m
    folded = np.zeros(m, dtype=np.complex128)
    np.add.at(folded, residues, signal.samples)
    return folded[residues]
