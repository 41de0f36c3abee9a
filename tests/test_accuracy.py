"""Accuracy budget: the kernel and the oracle against an extended-precision DFT.

The 1e-10 relative checks elsewhere leave room for an accuracy loss of
10^5 units of double rounding.  Here each transform is held to
eps * log2(alpha*N) (eps = 2**-52), the growth of a radix-2 FFT with
accurate twiddles, both as a relative RMS error over all bins and per bin
against the largest bin magnitude.  The reference is the reduced-index DFT
evaluated in np.longdouble, whose 64-bit mantissa puts its own error about
2000 times below the bound.

Besides fixed pairs, a property covers the power-of-two pairs with
4 <= alpha*N <= 2048, N <= 2048 and alpha from 1/8 to 16, planned while a
larger kept table exists, so that every table is a copy served from it.
At alpha*N = 2 the budget is a single eps, which the rounding of a
1/alpha-sample block sum alone can exceed (1.44 eps at N = 16, alpha = 1/8).

A nesting property holds the kernel to the same budget against itself:
every k-th bin of the (k*alpha)-spectrum is the alpha-spectrum, for k = 2
and 4 over the same pairs, the identity the kept twiddle table relies on.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alpha_spectra import (
    DenseFactor,
    Signal,
    alpha_fft,
    fastpath,
    naive_forward,
    plan,
    transform_samples,
)

# A host whose long double is a plain double would compare doubles with doubles.
assert np.finfo(np.longdouble).eps < 1e-18, "np.longdouble has no extended precision here"

EPS = 2.0 ** -52
PI = np.longdouble("3.14159265358979323846264338327950288")

PAIRS = [(64, DenseFactor(8)), (256, DenseFactor(4)), (512, DenseFactor(1)),
         (1024, DenseFactor(1, 4)), (2048, DenseFactor(1, 8)), (128, DenseFactor(16))]
SEEDS = (0, 1)

_references = {}


def _signal(n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def _dft(x, m):
    """(re, im) in long double of X_k = sum_n x_n exp(-2j*pi*((k*n) mod m)/m).

    Rows go in chunks of at most 2**18 matrix entries, so that no operand
    exceeds 4 MiB.
    """
    angles = 2 * PI * np.arange(m, dtype=np.longdouble) / m
    cos, sin = np.cos(angles), np.sin(angles)
    re, im = x.real.astype(np.longdouble), x.imag.astype(np.longdouble)
    out_re, out_im = np.empty(m, dtype=np.longdouble), np.empty(m, dtype=np.longdouble)
    rows = max(1, (1 << 18) // x.size)
    for k in range(0, m, rows):
        index = np.outer(np.arange(k, min(m, k + rows)), np.arange(x.size)) % m
        c, s = cos[index], sin[index]
        out_re[k:k + rows] = c @ re + s @ im
        out_im[k:k + rows] = c @ im - s @ re
    return out_re, out_im


def _reference(n, alpha, seed):
    """The long-double DFT of ``_signal(n, seed)`` at M = alpha*N, computed once."""
    key = (n, alpha, seed)
    if key not in _references:
        _references[key] = _dft(_signal(n, seed), n * alpha.p // alpha.q)
    return _references[key]


def _errors(bins, reference):
    """Relative RMS error and worst bin error relative to the largest bin."""
    re, im = reference
    err_re = bins.real.astype(np.longdouble) - re
    err_im = bins.imag.astype(np.longdouble) - im
    error = np.sqrt(err_re ** 2 + err_im ** 2)
    size = np.sqrt(re ** 2 + im ** 2)
    rms = np.sqrt(np.sum(error ** 2) / np.sum(size ** 2))
    return float(rms), float(np.max(error) / np.max(size))


def _assert_within_budget(bins, reference):
    bound = EPS * math.log2(bins.size)
    rms, worst = _errors(bins, reference)
    assert rms <= bound, f"relative RMS error {rms:.3e} > {bound:.3e}"
    assert worst <= bound, f"worst bin error {worst:.3e} > {bound:.3e} of the largest bin"


TRANSFORMS = {
    "kernel": lambda x, alpha: transform_samples(x, plan(x.size, alpha)),
    "oracle": lambda x, alpha: naive_forward(Signal(x), alpha).bins,
}


@pytest.mark.parametrize("transform", sorted(TRANSFORMS))
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n, alpha", PAIRS, ids=[f"{n}-{a.p}_{a.q}" for n, a in PAIRS])
def test_error_within_eps_log2_bins(n, alpha, seed, transform):
    _assert_within_budget(TRANSFORMS[transform](_signal(n, seed), alpha), _reference(n, alpha, seed))


@st.composite
def power_pairs(draw):
    """(N, alpha, seed): powers of two N <= 2048 and 4 <= alpha*N <= 2048, 1/8 <= alpha <= 16."""
    bits = draw(st.integers(2, 11))  # log2(alpha*N)
    n = 1 << draw(st.integers(max(0, bits - 4), min(11, bits + 3)))
    return n, DenseFactor(1 << bits, n), draw(st.integers(0, 2 ** 32 - 1))


@settings(max_examples=100, deadline=None)
@given(power_pairs())
def test_kernel_within_eps_log2_bins_from_kept_tables(pair):
    n, alpha, seed = pair
    plan(4096, DenseFactor(1))  # a kept table larger than any drawn
    p = plan(n, alpha)
    assert fastpath._root.size >= 2 * p.twiddles.size
    assert not np.shares_memory(p.twiddles, fastpath._root)
    x = _signal(n, seed)
    _assert_within_budget(transform_samples(x, p), _dft(x, p.m))


@st.composite
def nested_pairs(draw):
    """(N, alpha, k, seed): power_pairs' N and alpha, and a factor k of 2 or 4."""
    n, alpha, seed = draw(power_pairs())
    return n, alpha, draw(st.sampled_from([2, 4])), seed


@settings(max_examples=100, deadline=None)
@given(nested_pairs())
def test_every_kth_bin_of_k_alpha_is_the_alpha_spectrum(pair):
    # X_{k*alpha}[k*l] = sum_n x_n exp(-2j*pi*k*l*n/(k*alpha*N)) = X_alpha[l].
    n, alpha, k, seed = pair
    signal = Signal(_signal(n, seed))
    coarse = alpha_fft(signal, plan(n, alpha)).bins
    fine = alpha_fft(signal, plan(n, DenseFactor(k * alpha.p, alpha.q))).bins
    reference = (coarse.real.astype(np.longdouble), coarse.imag.astype(np.longdouble))
    _assert_within_budget(fine[::k], reference)
