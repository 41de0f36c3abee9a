import re

import numpy as np
import pytest

from alpha_spectra import (
    DenseFactor,
    OpCounter,
    Signal,
    UnsupportedSizeError,
    aliased_reconstruct,
    alpha_fft,
    fastpath,
    naive_forward,
    naive_inverse,
    plan,
    predicted_mults,
    standard_fft,
    zero_pad,
)
from alpha_spectra.baseline import METHODS, executor, transform


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


# ----------------------------------------------------------- method choice

FFT, NAIVE, PAD = "fft", "naive", "zeropad"


@pytest.mark.parametrize("n, alpha, outcomes", [
    # What auto, fft, naive and zeropad each run, or the error they raise.
    (8, DenseFactor(4), (FFT, FFT, NAIVE, PAD)),
    (8, DenseFactor(1, 2), (FFT, FFT, NAIVE, ValueError)),
    (12, DenseFactor(1), (NAIVE, UnsupportedSizeError, NAIVE, UnsupportedSizeError)),
    (6, DenseFactor(3, 2), (NAIVE, UnsupportedSizeError, NAIVE, UnsupportedSizeError)),
    (16, DenseFactor(3, 2), (NAIVE, UnsupportedSizeError, NAIVE, UnsupportedSizeError)),
    (12, DenseFactor(3), (NAIVE, UnsupportedSizeError, NAIVE, UnsupportedSizeError)),
])
def test_transform_runs_the_executor_its_method_names(n, alpha, outcomes):
    rng = np.random.default_rng(n * alpha.p + alpha.q)
    signal = Signal(unit_disk(rng, n), duration=2.5)
    direct = {
        FFT: lambda: alpha_fft(signal, plan(n, alpha)).bins,
        NAIVE: lambda: naive_forward(signal, alpha).bins,
        PAD: lambda: standard_fft(zero_pad(signal, alpha)).bins,
    }
    assert METHODS == ("auto", FFT, NAIVE, PAD)
    for method, outcome in zip(METHODS, outcomes):
        if isinstance(outcome, str):
            spectrum, label = transform(signal, alpha, method)
            assert label == outcome
            assert spectrum.bins.tobytes() == direct[outcome]().tobytes()
            assert (spectrum.origin_n, spectrum.alpha, spectrum.duration) == (n, alpha, 2.5)
            assert not spectrum.bins.flags.writeable
        else:
            with pytest.raises(outcome):
                transform(signal, alpha, method)


def test_transform_refusals_name_the_pair_and_the_method():
    with pytest.raises(UnsupportedSizeError, match=re.escape("got N=12, alpha*N=36;")):
        transform(Signal(np.ones(12)), DenseFactor(3), "zeropad")
    with pytest.raises(ValueError, match="unknown method 'fast'"):
        transform(Signal(np.ones(8)), DenseFactor(1), "fast")


@pytest.mark.parametrize("method, n, alpha, planned", [
    ("fft", 8, DenseFactor(4), (8, DenseFactor(4))),
    ("zeropad", 8, DenseFactor(4), (32, DenseFactor(1))),
    ("naive", 6, DenseFactor(3, 2), None),
])
def test_executor_plans_before_it_runs(monkeypatch, method, n, alpha, planned):
    plans = []
    make_plan = fastpath.plan
    monkeypatch.setattr(fastpath, "plan", lambda *pair: plans.append(pair) or make_plan(*pair))
    run, label = executor(n, alpha, method)
    assert label == method
    signal, counter = Signal(np.arange(n, dtype=float)), OpCounter()
    first, second = run(signal, counter), run(signal)
    # Planned once, up front; ``run`` only transforms, counting what it runs.
    assert plans == ([planned] if planned else [])
    assert first.bins.tobytes() == second.bins.tobytes()
    assert counter.complex_mults == (predicted_mults(make_plan(*planned)) if planned else 0)


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
