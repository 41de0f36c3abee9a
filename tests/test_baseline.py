import numpy as np
import pytest

from alpha_spectra import (
    DenseFactor,
    OpCounter,
    Signal,
    UnsupportedSizeError,
    aliased_reconstruct,
    alpha_fft,
    naive_forward,
    naive_inverse,
    plan,
    standard_fft,
    zero_pad,
)


def unit_disk(rng, n):
    return np.sqrt(rng.uniform(0, 1, n)) * np.exp(2j * np.pi * rng.uniform(0, 1, n))


# ------------------------------------------------------------------- padding

def test_zero_pad_layout():
    padded = zero_pad(Signal([1.0, 2.0], duration=1.0), DenseFactor(3))
    np.testing.assert_array_equal(padded.samples, [1, 2, 0, 0, 0, 0])
    assert padded.duration == 3.0  # stretched so the bin spacing matches


def test_zero_pad_rational_factor():
    padded = zero_pad(Signal(np.ones(4)), DenseFactor(3, 2))
    assert len(padded.samples) == 6
    assert padded.duration == 1.5


def test_zero_pad_alpha_one_is_copy():
    signal = Signal([1.0, -1.0])
    padded = zero_pad(signal, DenseFactor(1))
    np.testing.assert_array_equal(padded.samples, signal.samples)
    assert padded.duration == signal.duration


def test_zero_pad_rejects_thinning_factors():
    with pytest.raises(ValueError):
        zero_pad(Signal(np.ones(8)), DenseFactor(1, 2))


def test_zero_pad_rejects_fractional_length():
    with pytest.raises(ValueError):
        zero_pad(Signal(np.ones(3)), DenseFactor(3, 2))


def test_zero_pad_returns_a_signal():
    padded = zero_pad(Signal([1.0, 2.0]), DenseFactor(2))
    assert isinstance(padded, Signal)
    assert len(padded) == 4
    assert not padded.samples.flags.writeable


# --------------------------------------------------------------- standard FFT

def test_standard_fft_matches_numpy():
    rng = np.random.default_rng(9)
    samples = unit_disk(rng, 64)
    spectrum = standard_fft(Signal(samples))
    assert spectrum.alpha == DenseFactor(1)
    assert np.max(np.abs(spectrum.bins - np.fft.fft(samples))) < 1e-11


def test_standard_fft_counts():
    counter = OpCounter()
    standard_fft(Signal(np.ones(256)), counter=counter)
    assert counter.complex_mults == 128 * 8  # (M/2) log2 M
    assert counter.complex_adds == 256 * 8


def test_standard_fft_of_a_padded_signal():
    signal = Signal([1.0, 2.0, 3.0, 4.0])
    padded = zero_pad(signal, DenseFactor(2))
    from_signal = standard_fft(signal)
    from_padded = standard_fft(padded)
    assert len(from_signal.bins) == 4
    assert len(from_padded.bins) == 8
    assert from_padded.duration == padded.duration
    assert np.max(np.abs(from_padded.bins - np.fft.fft(padded.samples))) < 1e-12


def test_standard_fft_requires_power_of_two():
    with pytest.raises(UnsupportedSizeError):
        standard_fft(Signal(np.ones(12)))


# ------------------------------------------------- zero-padding equivalence

@pytest.mark.parametrize("n", [1, 2, 8, 32, 128, 512])
@pytest.mark.parametrize("alpha", [DenseFactor(1), DenseFactor(2), DenseFactor(4), DenseFactor(8)])
def test_padding_reproduces_dense_bins(n, alpha):
    # Same butterflies plus exact zeros: the two pipelines agree bitwise,
    # but the contract we hold them to is 1e-12 absolute.
    rng = np.random.default_rng(n * alpha.p)
    signal = Signal(unit_disk(rng, n))
    dense = alpha_fft(signal, plan(n, alpha))
    padded = standard_fft(zero_pad(signal, alpha))
    assert np.max(np.abs(dense.bins - padded.bins)) <= 1e-12


def test_padding_equivalence_for_naive_path():
    rng = np.random.default_rng(100)
    signal = Signal(unit_disk(rng, 12))
    dense = naive_forward(signal, DenseFactor(3))
    padded = naive_forward(zero_pad(signal, DenseFactor(3)), DenseFactor(1))
    assert np.max(np.abs(dense.bins - padded.bins)) < 1e-10


# ------------------------------------------------------------------ aliasing

def test_aliased_reconstruct_example():
    folded = aliased_reconstruct(Signal([1.0, 2.0, 3.0, 4.0]), DenseFactor(1, 2))
    np.testing.assert_array_equal(folded, [4.0, 6.0, 4.0, 6.0])


def test_aliased_reconstruct_rational():
    # N=3, alpha=2/3 keeps two bins; indices 0 and 2 share residue 0.
    folded = aliased_reconstruct(Signal([1.0, 10.0, 100.0]), DenseFactor(2, 3))
    np.testing.assert_array_equal(folded, [101.0, 10.0, 101.0])


def test_aliased_reconstruct_rejects_dense_factors():
    with pytest.raises(ValueError):
        aliased_reconstruct(Signal(np.ones(4)), DenseFactor(1))
    with pytest.raises(ValueError):
        aliased_reconstruct(Signal(np.ones(4)), DenseFactor(2))


@pytest.mark.parametrize("n, alpha", [
    (8, DenseFactor(1, 2)),
    (16, DenseFactor(1, 4)),
    (12, DenseFactor(2, 3)),
    (64, DenseFactor(1, 8)),
])
def test_inverse_of_sparse_spectrum_is_alias_fold(n, alpha):
    rng = np.random.default_rng(n + alpha.q)
    signal = Signal(unit_disk(rng, n))
    recovered = naive_inverse(naive_forward(signal, alpha))
    expected = aliased_reconstruct(signal, alpha)
    assert np.max(np.abs(recovered.samples - expected)) < 1e-10
