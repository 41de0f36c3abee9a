import re

import numpy as np
import pytest

from alpha_spectra import (
    DenseFactor,
    IncompatibleAlphaError,
    OpCounter,
    Signal,
    Spectrum,
    UnsupportedSizeError,
    aliased_reconstruct,
    alpha_fft,
    fastpath,
    naive_forward,
    naive_inverse,
    plan,
    predicted_mults,
)
from alpha_spectra.baseline import METHODS, executor
from alpha_spectra.verify import random_unit_disk

import contract_rules


# ------------------------------------------------------------------- padding
# executor's zeropad run: alpha*N samples, a zero tail, the fast kernel at alpha = 1.

def zero_padded(samples, m):
    """``samples`` followed by zeros up to ``m`` values."""
    return np.concatenate([samples, np.zeros(m - len(samples))])


def zeropad(signal, alpha, counter=None):
    return executor(len(signal), alpha, "zeropad")[0](signal, counter)


def test_zero_pad_layout():
    # A zero tail: the bins are numpy's FFT of the padded samples; the
    # spectrum keeps N, alpha and T, so its bins lie 1/(alpha*T) apart.
    for samples, alpha in [([1.0, 2.0], DenseFactor(4)), ([1.0, 2.0, 3.0, 4.0], DenseFactor(2))]:
        spectrum = zeropad(Signal(samples, duration=1.5), alpha)
        assert isinstance(spectrum, Spectrum)
        assert len(spectrum.bins) == len(samples) * alpha.p
        assert np.max(np.abs(spectrum.bins - np.fft.fft(zero_padded(samples, spectrum.m)))) <= 1e-12
        assert (spectrum.origin_n, spectrum.alpha, spectrum.duration) == (len(samples), alpha, 1.5)
        assert not spectrum.bins.flags.writeable


def test_zero_pad_rational_factor():
    # N = 6 is no power of two, but alpha*N = 8 is: 6 samples, 2 zeros.
    samples = random_unit_disk(np.random.default_rng(6), 6)
    spectrum = zeropad(Signal(samples, duration=3.0), DenseFactor(4, 3))
    assert np.max(np.abs(spectrum.bins - np.fft.fft(zero_padded(samples, 8)))) <= 1e-12
    assert (spectrum.origin_n, spectrum.alpha, spectrum.duration) == (6, DenseFactor(4, 3), 3.0)
    assert spectrum.frequencies[1] == 1 / 4.0  # 1/(alpha*T)


def test_zero_pad_alpha_one_is_copy():
    # Nothing to pad: the plain FFT, bit for bit the fast path at alpha = 1.
    signal = Signal(random_unit_disk(np.random.default_rng(9), 64))
    spectrum = zeropad(signal, DenseFactor(1))
    assert spectrum.bins.tobytes() == alpha_fft(signal, plan(64, DenseFactor(1))).bins.tobytes()
    assert np.max(np.abs(spectrum.bins - np.fft.fft(signal.samples))) < 1e-11


@pytest.mark.parametrize("n, alpha", [(256, DenseFactor(1)), (64, DenseFactor(4)),
                                      (6, DenseFactor(4, 3))])
def test_zero_pad_counts_a_full_padded_fft(n, alpha):
    counter = OpCounter()
    zeropad(Signal(np.ones(n)), alpha, counter)
    m = n * alpha.p // alpha.q
    log2_m = m.bit_length() - 1
    assert counter.complex_mults == (m // 2) * log2_m  # (M/2) log2 M
    assert counter.complex_adds == m * log2_m


def test_zero_pad_rejects_thinning_factors():
    with pytest.raises(ValueError, match=re.escape("zero-padding needs alpha >= 1, got 1/2")):
        executor(8, DenseFactor(1, 2), "zeropad")


def test_zero_pad_rejects_fractional_length():
    with pytest.raises(IncompatibleAlphaError):
        executor(3, DenseFactor(3, 2), "zeropad")


@pytest.mark.parametrize("n, alpha", [(12, DenseFactor(1)), (4, DenseFactor(3, 2))])
def test_zero_pad_needs_a_power_of_two_length(n, alpha):
    with pytest.raises(UnsupportedSizeError, match="zero-padding needs a power-of-two alpha"):
        executor(n, alpha, "zeropad")


# ------------------------------------------------- zero-padding equivalence

@pytest.mark.parametrize("n", [1, 2, 8, 32, 128, 512])
@pytest.mark.parametrize("alpha", [DenseFactor(1), DenseFactor(2), DenseFactor(4), DenseFactor(8)])
def test_padding_reproduces_dense_bins(n, alpha):
    # Same butterflies plus exact zeros: the two pipelines agree bitwise,
    # but the contract we hold them to is 1e-12 absolute.
    rng = np.random.default_rng(n * alpha.p)
    signal = Signal(random_unit_disk(rng, n))
    dense = alpha_fft(signal, plan(n, alpha))
    padded = zeropad(signal, alpha)
    assert np.max(np.abs(dense.bins - padded.bins)) <= 1e-12


def test_padding_equivalence_for_naive_path():
    rng = np.random.default_rng(100)
    signal = Signal(random_unit_disk(rng, 12))
    dense = naive_forward(signal, DenseFactor(3))
    padded = naive_forward(Signal(zero_padded(signal.samples, 36), 3 * signal.duration),
                           DenseFactor(1))
    assert np.max(np.abs(dense.bins - padded.bins)) < 1e-10


# ----------------------------------------------------------- method choice

@pytest.mark.parametrize("n, alpha", [
    # What auto, fft, naive and zeropad each run, or the error they raise, by the contract's rules.
    (8, DenseFactor(4)),
    (8, DenseFactor(1, 2)),
    (12, DenseFactor(1)),
    (6, DenseFactor(3, 2)),
    (16, DenseFactor(3, 2)),
    (12, DenseFactor(3)),
])
def test_transform_runs_the_executor_its_method_names(n, alpha):
    rng = np.random.default_rng(n * alpha.p + alpha.q)
    signal = Signal(random_unit_disk(rng, n), duration=2.5)
    assert METHODS == contract_rules.METHODS
    for method in METHODS:
        code, outcome = contract_rules.expected(n, alpha, method)
        if outcome is not None:
            run, label = executor(n, alpha, method)
            assert label == outcome
            spectrum = run(signal)
            assert spectrum.bins.tobytes() == contract_rules.reference_bins(
                outcome, signal, alpha).tobytes()
            assert (spectrum.origin_n, spectrum.alpha, spectrum.duration) == (n, alpha, 2.5)
            assert not spectrum.bins.flags.writeable
        else:
            with pytest.raises(contract_rules.EXCEPTIONS[code]):
                executor(n, alpha, method)


def test_transform_refusals_name_the_pair_and_the_method():
    with pytest.raises(UnsupportedSizeError, match=re.escape("got N=12, alpha*N=36;")):
        executor(12, DenseFactor(3), "zeropad")
    with pytest.raises(ValueError, match="unknown method 'fast'"):
        executor(8, DenseFactor(1), "fast")
    # N must be an int: a numpy integer or a float is refused before planning.
    for n in (np.int64(4), 4.0, True):
        for method in METHODS:
            with pytest.raises(ValueError, match=re.escape(f"an integer >= 1, got {n!r}")):
                executor(n, DenseFactor(2), method)


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


@pytest.mark.parametrize("method, n, alpha", [
    ("fft", 8, DenseFactor(2)),
    ("zeropad", 8, DenseFactor(2)),
    ("naive", 8, DenseFactor(2)),
    ("auto", 8, DenseFactor(2)),
    ("auto", 6, DenseFactor(3, 2)),
])
def test_executor_runs_refuse_a_signal_of_another_length(method, n, alpha):
    # A run is planned for N samples: one sample is not broadcast, and four
    # or sixteen are not transformed as a spectrum of another N.
    run, _ = executor(n, alpha, method)
    for length in (1, 4, 16):
        with pytest.raises(ValueError) as info:
            run(Signal(np.ones(length)), OpCounter())
        assert str(info.value) == f"plan is for N={n}, got {length} samples"


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
    signal = Signal(random_unit_disk(rng, n))
    recovered = naive_inverse(naive_forward(signal, alpha))
    expected = aliased_reconstruct(signal, alpha)
    assert np.max(np.abs(recovered.samples - expected)) < 1e-10
