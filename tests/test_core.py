import numpy as np
import pytest

from alpha_spectra import (
    DenseFactor,
    IncompatibleAlphaError,
    Signal,
    Spectrum,
    TooManyBinsError,
    bin_frequency,
    is_power_of_two,
    plan,
    validate_pair,
)
from alpha_spectra.core import MAX_BINS


def test_dense_factor_reduces():
    assert DenseFactor(6, 4) == DenseFactor(3, 2)
    assert DenseFactor(8, 2) == DenseFactor(4, 1)
    assert DenseFactor(5).q == 1
    assert str(DenseFactor(2)) == "2/1"


@pytest.mark.parametrize("p, q", [(0, 1), (1, 0), (-2, 1), (1, -3), (0, 0)])
def test_dense_factor_rejects_nonpositive(p, q):
    with pytest.raises(ValueError):
        DenseFactor(p, q)


def test_dense_factor_rejects_floats():
    with pytest.raises(ValueError):
        DenseFactor(1.5, 1)


@pytest.mark.parametrize("text, expected", [
    ("1/2", DenseFactor(1, 2)),
    ("8", DenseFactor(8)),
    (" 3 / 6 ", DenseFactor(1, 2)),
])
def test_dense_factor_from_string(text, expected):
    assert DenseFactor.from_string(text) == expected


@pytest.mark.parametrize("text", ["", "/", "1/", "/2", "a/b", "1/2/3", "0.5"])
def test_dense_factor_from_string_rejects(text):
    with pytest.raises(ValueError):
        DenseFactor.from_string(text)


def test_validate_pair_examples():
    assert validate_pair(6, DenseFactor(4, 3)) == (6, 8)
    assert validate_pair(2, DenseFactor(2)) == (2, 4)
    assert validate_pair(8, DenseFactor(1, 8)) == (8, 1)
    with pytest.raises(IncompatibleAlphaError):
        validate_pair(4, DenseFactor(3, 8))  # 12/8 is not an integer


def test_validate_pair_bin_ceiling():
    # Arithmetic only: no size here is allocated.
    assert validate_pair(1, DenseFactor(MAX_BINS)) == (1, MAX_BINS)
    assert validate_pair(1 << 20, DenseFactor(8)) == (1 << 20, 1 << 23)
    for n, alpha in [(1, DenseFactor(MAX_BINS + 1)), (3, DenseFactor(10 ** 11, 3)),
                     (MAX_BINS * 4, DenseFactor(1))]:
        with pytest.raises(TooManyBinsError) as info:
            validate_pair(n, alpha)
        assert info.value.m == n * alpha.p // alpha.q
    with pytest.raises(TooManyBinsError):
        plan(1, DenseFactor(10 ** 11))


def test_validate_pair_rejects_bad_length():
    with pytest.raises(ValueError):
        validate_pair(0, DenseFactor(1))


def test_validate_pair_iff_q_divides_n():
    # After reduction, alpha*N is an integer exactly when q divides N.
    rng = np.random.default_rng(11)
    for _ in range(200):
        p = int(rng.integers(1, 30))
        q = int(rng.integers(1, 30))
        n = int(rng.integers(1, 200))
        alpha = DenseFactor(p, q)
        should_pass = n % alpha.q == 0
        if should_pass:
            _, m = validate_pair(n, alpha)
            assert m * alpha.q == n * alpha.p
        else:
            with pytest.raises(IncompatibleAlphaError):
                validate_pair(n, alpha)


def test_incompatible_alpha_error_carries_context():
    try:
        validate_pair(4, DenseFactor(3, 8))
    except IncompatibleAlphaError as exc:
        assert (exc.n, exc.p, exc.q) == (4, 3, 8)
    else:
        pytest.fail("expected IncompatibleAlphaError")


def test_bin_frequency_example():
    assert bin_frequency(5, DenseFactor(1, 2), duration=2.0) == 5.0
    assert bin_frequency(0, DenseFactor(8)) == 0.0
    with pytest.raises(IndexError):
        bin_frequency(-1, DenseFactor(1))


def test_is_power_of_two():
    assert [n for n in range(1, 20) if is_power_of_two(n)] == [1, 2, 4, 8, 16]
    assert not is_power_of_two(0)


def test_signal_copies_and_locks():
    raw = np.ones(4, dtype=complex)
    signal = Signal(raw)
    raw[0] = 99
    assert signal.samples[0] == 1
    with pytest.raises(ValueError):
        signal.samples[0] = 5  # read-only
    assert len(signal) == 4
    assert signal.dt == 0.25


def test_signal_validation():
    with pytest.raises(ValueError):
        Signal(np.zeros(0))
    with pytest.raises(ValueError):
        Signal(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        Signal([1.0], duration=0.0)


def test_spectrum_bin_count_must_match():
    spectrum = Spectrum(np.zeros(8), 4, DenseFactor(2))
    assert spectrum.m == 8
    with pytest.raises(ValueError):
        Spectrum(np.zeros(7), 4, DenseFactor(2))
    with pytest.raises(IncompatibleAlphaError):
        Spectrum(np.zeros(6), 4, DenseFactor(3, 8))


def test_spectrum_frequencies_match_scalar_map():
    spectrum = Spectrum(np.zeros(12), 8, DenseFactor(3, 2), duration=2.5)
    freqs = spectrum.frequencies
    assert freqs.shape == (12,)
    for m in range(12):
        assert freqs[m] == spectrum.bin_frequency(m)  # identical arithmetic, identical bits
    assert np.all(np.diff(freqs) > 0)
    with pytest.raises(IndexError):
        spectrum.bin_frequency(12)


def test_frequency_grid_span():
    # One spacing past the last bin is N/T: twice the Nyquist rate.
    n, alpha, duration = 16, DenseFactor(4), 2.0
    _, m = validate_pair(n, alpha)
    assert bin_frequency(m, alpha, duration) == n / duration
    spectrum = Spectrum(np.zeros(m), n, alpha, duration)
    assert spectrum.bin_frequency(0) == 0.0
    with pytest.raises(IndexError):
        spectrum.bin_frequency(m)
