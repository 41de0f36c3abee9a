import cmath
import tracemalloc

import numpy as np
import pytest

from alpha_spectra import oracle
from alpha_spectra import (
    DenseFactor,
    IncompatibleAlphaError,
    Signal,
    dft_matrix,
    naive_forward,
    naive_inverse,
    orthogonality_kernel,
)
from alpha_spectra.verify import random_unit_disk


def slow_reference(samples, p, q):
    """From-scratch scalar evaluation of the density-p/q transform."""
    n = len(samples)
    assert (n * p) % q == 0
    m = n * p // q
    out = np.empty(m, dtype=complex)
    for k in range(m):
        acc = 0j
        for j in range(n):
            acc += cmath.exp(-2j * cmath.pi * ((k * j) % m) / m) * samples[j]
        out[k] = acc
    return out


def test_forward_two_sample_example():
    spectrum = naive_forward(Signal([0.0, 1.0]), DenseFactor(2))
    assert spectrum.m == 4
    np.testing.assert_allclose(spectrum.bins, [1, -1j, -1, 1j], atol=1e-15)


def test_forward_halving_collapses_to_two_bins():
    rng = np.random.default_rng(3)
    a, b, c, d = random_unit_disk(rng, 4)
    spectrum = naive_forward(Signal([a, b, c, d]), DenseFactor(1, 2))
    np.testing.assert_allclose(spectrum.bins, [a + b + c + d, a - b + c - d], atol=1e-14)


SCALAR_GRID = [
    (p, q, n)
    for p, q in [(1, 4), (1, 2), (2, 3), (1, 1), (3, 2), (2, 1), (3, 1), (4, 1)]
    for n in [1, 2, 3, 4, 6, 8, 12, 16]
]


@pytest.mark.parametrize("p, q, n", [(p, q, n) for p, q, n in SCALAR_GRID if n * p % q == 0])
def test_forward_matches_scalar_reference(p, q, n):
    rng = np.random.default_rng(100 * n + 10 * p + q)
    samples = random_unit_disk(rng, n)
    got = naive_forward(Signal(samples), DenseFactor(p, q)).bins
    want = slow_reference(samples, p, q)
    assert np.max(np.abs(got - want)) < 1e-12 * max(1.0, np.max(np.abs(want)))


@pytest.mark.parametrize("p, q, n", [(p, q, n) for p, q, n in SCALAR_GRID if n * p % q])
def test_forward_refuses_fractional_bin_count(p, q, n):
    with pytest.raises(IncompatibleAlphaError):
        naive_forward(Signal(np.ones(n)), DenseFactor(p, q))


@pytest.mark.parametrize("n, p", [(8, 1), (8, 2), (16, 4), (32, 8), (64, 2)])
def test_forward_matches_padded_numpy_fft(n, p):
    # For alpha >= 1 the dense spectrum equals the FFT of the zero-padded signal.
    rng = np.random.default_rng(n + p)
    samples = random_unit_disk(rng, n)
    got = naive_forward(Signal(samples), DenseFactor(p)).bins
    want = np.fft.fft(samples, n * p)
    assert np.max(np.abs(got - want)) < 1e-11


@pytest.mark.parametrize("n, q", [(8, 2), (16, 4), (64, 8), (64, 2)])
def test_forward_matches_subsampled_numpy_fft(n, q):
    # For alpha = 1/q the spectrum is every q-th bin of the ordinary FFT.
    rng = np.random.default_rng(n * q)
    samples = random_unit_disk(rng, n)
    got = naive_forward(Signal(samples), DenseFactor(1, q)).bins
    want = np.fft.fft(samples)[::q]
    assert np.max(np.abs(got - want)) < 1e-11


def test_forward_rejects_incompatible_pair():
    with pytest.raises(IncompatibleAlphaError):
        naive_forward(Signal(np.ones(4)), DenseFactor(3, 8))


def test_forward_is_linear():
    rng = np.random.default_rng(17)
    alpha = DenseFactor(3, 2)
    x = random_unit_disk(rng, 6)
    y = random_unit_disk(rng, 6)
    scale = complex(rng.standard_normal(), rng.standard_normal())
    lhs = naive_forward(Signal(x + scale * y), alpha).bins
    rhs = naive_forward(Signal(x), alpha).bins + scale * naive_forward(Signal(y), alpha).bins
    assert np.max(np.abs(lhs - rhs)) < 1e-12


@pytest.mark.parametrize("p", [1, 2, 4])
def test_parseval_for_dense_spectra(p):
    # With alpha >= 1 no information is lost: sum |X|^2 == alpha*N * sum |x|^2.
    rng = np.random.default_rng(23 + p)
    samples = random_unit_disk(rng, 32)
    spectrum = naive_forward(Signal(samples), DenseFactor(p))
    lhs = np.sum(np.abs(spectrum.bins) ** 2)
    rhs = spectrum.m * np.sum(np.abs(samples) ** 2)
    assert abs(lhs - rhs) < 1e-10 * rhs


def test_dft_matrix_agrees_with_forward():
    rng = np.random.default_rng(5)
    samples = random_unit_disk(rng, 12)
    alpha = DenseFactor(2, 3)
    matrix = dft_matrix(12, alpha)
    assert matrix.shape == (8, 12)
    want = naive_forward(Signal(samples), alpha).bins
    assert np.max(np.abs(matrix @ samples - want)) < 1e-13


@pytest.mark.parametrize("n, p, q", [(8, 1, 1), (8, 2, 1), (16, 4, 1), (12, 3, 2), (64, 1, 1)])
def test_round_trip_recovers_signal(n, p, q):
    rng = np.random.default_rng(1000 + n)
    signal = Signal(random_unit_disk(rng, n), duration=2.0)
    recovered = naive_inverse(naive_forward(signal, DenseFactor(p, q)))
    assert len(recovered) == n
    assert recovered.duration == signal.duration
    assert np.max(np.abs(recovered.samples - signal.samples)) < 1e-12


def test_inverse_folds_when_alpha_below_one():
    rng = np.random.default_rng(9)
    a, b, c, d = random_unit_disk(rng, 4)
    recovered = naive_inverse(naive_forward(Signal([a, b, c, d]), DenseFactor(1, 2)))
    np.testing.assert_allclose(recovered.samples, [a + c, b + d, a + c, b + d], atol=1e-14)


@pytest.mark.parametrize("n, q", [(16, 2), (16, 4), (32, 8), (12, 3)])
def test_inverse_alias_sum_formula(n, q):
    # x'_n = sum over k of x_{n + k*M} for indices that stay inside the record,
    # extended with period M across the full length-N output.
    rng = np.random.default_rng(n * q + 1)
    samples = random_unit_disk(rng, n)
    recovered = naive_inverse(naive_forward(Signal(samples), DenseFactor(1, q))).samples
    m = n // q
    expected = np.zeros(n, dtype=complex)
    for slot in range(n):
        expected[slot] = samples[slot % m::m].sum()
    assert np.max(np.abs(recovered - expected)) < 1e-12
    assert np.max(np.abs(recovered[:m] - recovered[m:2 * m])) < 1e-15


def test_orthogonality_kernel_on_comb_example():
    value = orthogonality_kernel(0, 2, 4, DenseFactor(1, 2))
    assert value == 1.0  # (n - l) = -2 is a multiple of alpha*N = 2


@pytest.mark.parametrize("n, p, q", [(8, 1, 1), (8, 2, 1), (8, 1, 2), (12, 3, 2), (16, 1, 4)])
def test_orthogonality_kernel_comb(n, p, q):
    m = n * p // q
    for delta in range(-(n - 1), n):
        value = orthogonality_kernel(delta, 0, n, DenseFactor(p, q))
        if delta % m == 0:
            assert abs(value - 1.0) < 1e-12
        else:
            assert abs(value) < 1e-12


def test_spectrum_carries_timing():
    signal = Signal(np.ones(4), duration=2.0)
    spectrum = naive_forward(signal, DenseFactor(2))
    assert spectrum.duration == 2.0
    assert spectrum.frequencies[1] == 1 / (2 * 2.0)


def test_forward_takes_over_its_product(monkeypatch):
    # The Spectrum holds the product's own array, read-only, and shares no
    # memory with the input.
    made = []
    original = oracle._reduced_product

    def product(*args, **kwargs):
        made.append(original(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(oracle, "_reduced_product", product)
    signal = Signal(random_unit_disk(np.random.default_rng(43), 12))
    spectrum = naive_forward(signal, DenseFactor(4, 3))
    assert spectrum.bins is made[0]
    assert not spectrum.bins.flags.writeable
    assert not np.shares_memory(spectrum.bins, signal.samples)


# Shapes around the blocks of rows the oracle evaluates at a time: a block
# holds max(2, 32768 // columns) rows, columns being N forward and alpha*N
# in the inverse.
@pytest.mark.parametrize("n, p, q", [
    (1000, 3, 5),      # alpha*N < N; 600 rows in blocks of 32, the last one short
    (1000, 609, 1000), # 609 rows = 19 blocks of 32 and one row left over
    (700, 4, 7),       # 400 rows, blocks of 46
    (20000, 3, 20000), # a block of the budget would hold under two rows
    (20000, 1, 2000),
    (3, 6000, 1),      # the same in the inverse: 3 rows of 18000 columns
    (1, 1, 1),
    (1, 5, 1),
    (8, 1, 8),         # alpha*N = 1
    (5, 1, 5),
])
def test_blocked_product_matches_the_full_matrix(n, p, q):
    rng = np.random.default_rng(n + 7 * p + q)
    alpha = DenseFactor(p, q)
    samples = random_unit_disk(rng, n)
    matrix = dft_matrix(n, alpha)
    spectrum = naive_forward(Signal(samples), alpha)
    want = matrix @ samples
    assert np.max(np.abs(spectrum.bins - want)) <= 1e-13 * np.max(np.abs(want))
    recovered = naive_inverse(spectrum).samples
    want = matrix.conj().T @ spectrum.bins / spectrum.m
    assert np.max(np.abs(recovered - want)) <= 1e-13 * np.max(np.abs(want))


def test_oracle_memory_is_a_fixed_budget():
    # Both directions gather a bounded block of table entries at a time,
    # rather than whole (rows x columns) index and entry matrices.
    rng = np.random.default_rng(41)
    signal = Signal(random_unit_disk(rng, 3000))
    alpha = DenseFactor(5, 3)
    spectrum = naive_forward(signal, alpha)
    for call in (lambda: naive_forward(signal, alpha), lambda: naive_inverse(spectrum)):
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
