"""Accuracy budget: the kernel and the oracle against an extended-precision DFT.

The 1e-10 relative checks elsewhere leave room for an accuracy loss of
10^5 units of double rounding.  Here each transform is held to
eps * log2(alpha*N) (eps = 2**-52), the growth of a radix-2 FFT with
accurate twiddles, both as a relative RMS error over all bins and per bin
against the largest bin magnitude.  The reference is the reduced-index DFT
evaluated in np.longdouble, whose 64-bit mantissa puts its own error about
2000 times below the bound.
"""

import math

import numpy as np
import pytest

from alpha_spectra import DenseFactor, Signal, naive_forward, plan, transform_samples

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


def _reference(n, alpha, seed):
    """(re, im) in long double of X_k = sum_n x_n exp(-2j*pi*((k*n) mod M)/M), M = alpha*N."""
    key = (n, alpha, seed)
    if key not in _references:
        m = n * alpha.p // alpha.q
        angles = 2 * PI * np.arange(m, dtype=np.longdouble) / m
        cos, sin = np.cos(angles), np.sin(angles)
        index = np.outer(np.arange(m), np.arange(n)) % m
        x = _signal(n, seed)
        re, im = x.real.astype(np.longdouble), x.imag.astype(np.longdouble)
        c, s = cos[index], sin[index]
        _references[key] = (c @ re + s @ im, c @ im - s @ re)
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


TRANSFORMS = {
    "kernel": lambda x, alpha: transform_samples(x, plan(x.size, alpha)),
    "oracle": lambda x, alpha: naive_forward(Signal(x), alpha).bins,
}


@pytest.mark.parametrize("transform", sorted(TRANSFORMS))
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n, alpha", PAIRS, ids=[f"{n}-{a.p}_{a.q}" for n, a in PAIRS])
def test_error_within_eps_log2_bins(n, alpha, seed, transform):
    bins = TRANSFORMS[transform](_signal(n, seed), alpha)
    bound = EPS * math.log2(bins.size)
    rms, worst = _errors(bins, _reference(n, alpha, seed))
    assert rms <= bound, f"relative RMS error {rms:.3e} > {bound:.3e}"
    assert worst <= bound, f"worst bin error {worst:.3e} > {bound:.3e} of the largest bin"

