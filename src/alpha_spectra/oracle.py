"""Direct-evaluation reference transforms.

The forward map is X_m = sum_n exp(-2j*pi*m*n/(alpha*N)) * x_n for
m = 0..alpha*N-1, evaluated literally from one table of the (alpha*N)-th
roots of unity.  Exponents are reduced with exact integer arithmetic
((m*n) mod alpha*N) before touching the table, so no accuracy is lost to
large-angle evaluation even at the biggest supported sizes.  Cost is
Theta(N * alpha*N) complex multiply-adds by construction -- this is the
oracle; it performs no factorization.

One blocked product, ``_reduced_product``, is the library's only literal
statement of the transform: ``naive_forward`` runs it with the forward
sign and ``naive_inverse`` with the conjugate one.  No full (alpha*N) x N
matrix is ever built.  Rows are evaluated a block at a time.  Besides the
table, each call builds one block of reduced exponents for the first rows,
and every later block's exponents are that block plus a per-column offset;
the buffers are sized once, to a fixed budget of _BLOCK_BYTES of table
entries, whatever N and alpha are.
"""

import numpy as np

from .core import DenseFactor, Signal, Spectrum, validate_pair

#: Bytes of complex128 table entries gathered per block of rows: small
#: enough for the block to stay in cache between the gather and the product.
_BLOCK_BYTES = 512 * 1024


def roots_of_unity(m: int, sign: int) -> np.ndarray:
    """w[j] = exp(sign * 2j*pi*j/m) for j = 0..m-1."""
    return np.exp(sign * 2j * np.pi * np.arange(m) / m)


def _reduced_product(vector: np.ndarray, m: int, sign: int, rows: int) -> np.ndarray:
    """out[r] = sum_c w^((r*c) mod m) * vector[c] for r < rows, w = exp(sign*2j*pi/m).

    Blocks of ``block`` rows share one int64 index block ``inner[i, c] =
    (i*c) mod m``; block j adds ``base[c] = (j*block*c) mod m``, kept
    reduced by one conditional subtraction per block, and gathers from the
    table written out twice, so that index sums up to 2m - 2 need no
    reduction.  The loop allocates nothing.
    """
    n = vector.size
    table = roots_of_unity(m, sign)
    table2 = np.concatenate((table, table))
    # At least two rows: numpy computes a one-row product with BLAS dot,
    # which sums in another order than the gemv of larger blocks.
    block = min(rows, max(2, _BLOCK_BYTES // (16 * n)))
    cols = np.arange(n, dtype=np.int64)
    inner = np.arange(block, dtype=np.int64)[:, None] * cols % m
    step_down = block * cols % m - m
    base = np.zeros(n, dtype=np.int64)
    # The last block, when short, is moved back to end at row ``rows``, so
    # that every block has ``block`` rows and every bin is summed alike.
    tail = (rows - block) * cols % m
    spare = np.empty_like(base)
    idx = np.empty_like(inner)
    w = np.empty(inner.shape, dtype=np.complex128)
    out = np.empty(rows, dtype=np.complex128)
    for start in range(0, rows, block):
        if start > rows - block:
            start, base = rows - block, tail
        np.add(inner, base, out=idx)
        np.take(table2, idx, out=w, mode="clip")  # "raise" would buffer ``out``
        np.matmul(w, vector, out=out[start:start + block])
        base += step_down  # (base + step) - m, in [-m, m)
        np.right_shift(base, 63, out=spare)  # -1 where negative, else 0
        np.bitwise_and(spare, m, out=spare)
        base += spare
    return out


def naive_forward(signal: Signal, alpha: DenseFactor) -> Spectrum:
    """Literal evaluation of the density-alpha transform.

    Parameters
    ----------
    signal : Signal
        N complex samples over ``signal.duration`` seconds.
    alpha : DenseFactor
        Bin density; alpha*N must be a positive integer.

    Returns
    -------
    Spectrum
        alpha*N bins at frequencies m/(alpha*T), unscaled (no 1/N factor),
        in the read-only array that the product wrote; it is not copied.
    """
    n, m = validate_pair(len(signal), alpha)
    bins = _reduced_product(signal.samples, m, sign=-1, rows=m)
    return Spectrum._adopt(bins, n, alpha, signal.duration)


def naive_inverse(spectrum: Spectrum) -> Signal:
    """Literal inverse: x_n = (1/(alpha*N)) * sum_m exp(+2j*pi*m*n/(alpha*N)) * X_m.

    Returns the first origin_N samples.  For alpha >= 1 that recovers the
    original signal; for alpha < 1 the result is the alias-folded signal
    x'_n = sum_k x_{n+k*alpha*N}, extended periodically over n < N (the
    exponential is period-alpha*N in n, so slots n >= alpha*N repeat).
    """
    out = _reduced_product(spectrum.bins, spectrum.m, sign=+1, rows=spectrum.origin_n)
    return Signal(out / spectrum.m, spectrum.duration)


def orthogonality_kernel(n_index: int, l_index: int, n: int, alpha: DenseFactor) -> complex:
    """(1/(alpha*N)) * sum_m exp(+2j*pi*m*(n-l)/(alpha*N)).

    Equals 1 exactly when (n_index - l_index) is a multiple of alpha*N and
    is numerically zero (< 1e-12) everywhere else -- the comb that makes the
    inverse land on alias sums rather than single samples when alpha < 1.
    """
    _, m = validate_pair(n, alpha)
    table = roots_of_unity(m, sign=+1)
    delta = (n_index - l_index) % m
    # Divide as a Python complex: unlike ndarray division (reciprocal times
    # numerator), that is exact for a real denominator, keeping comb points
    # at exactly 1 even when m is not a power of two.
    return complex(table[(np.arange(m) * delta) % m].sum()) / m
