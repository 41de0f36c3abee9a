import numpy as np
import pytest

from alpha_spectra import (
    DenseFactor,
    LeafKind,
    OpCounter,
    Signal,
    UnsupportedSizeError,
    alpha_fft,
    combine,
    naive_forward,
    plan,
    predicted_adds,
    predicted_mults,
    transform_samples,
)

POWER_ALPHAS = [DenseFactor(1, 8), DenseFactor(1, 4), DenseFactor(1, 2),
                DenseFactor(1), DenseFactor(2), DenseFactor(4), DenseFactor(8)]


def unit_disk(rng, n):
    return np.sqrt(rng.uniform(0, 1, n)) * np.exp(2j * np.pi * rng.uniform(0, 1, n))


def valid_power_pairs(sizes):
    for n in sizes:
        for alpha in POWER_ALPHAS:
            if (n * alpha.p) % alpha.q == 0:
                yield n, alpha


# ---------------------------------------------------------------- plan shape

def test_plan_depth_example():
    p = plan(8, DenseFactor(2))
    assert p.depth == 3
    assert p.shape == (16, 8)
    assert p.leaf is LeafKind.SINGLE_SAMPLE
    assert p.twiddles.shape == (8,)
    assert [len(p.twiddles[::1 << k]) for k in range(p.depth)] == [8, 4, 2]


def test_plan_block_sum_leaf():
    p = plan(8, DenseFactor(1, 4))
    assert p.depth == 1  # log2(min(8, 2))
    assert p.leaf is LeafKind.BLOCK_SUM
    assert p.twiddles.shape == (1,)


def test_plan_degenerate_sizes():
    assert plan(1, DenseFactor(8)).depth == 0
    assert plan(8, DenseFactor(1, 8)).depth == 0
    assert predicted_mults(plan(1, DenseFactor(1))) == 0


@pytest.mark.parametrize("n, alpha", [
    (12, DenseFactor(1)),        # N not a power of two
    (8, DenseFactor(3, 2)),      # alpha*N = 12 not a power of two
    (6, DenseFactor(2, 3)),      # neither
])
def test_plan_rejects_unsupported_sizes(n, alpha):
    with pytest.raises(UnsupportedSizeError):
        plan(n, alpha)


def test_plan_depth_is_log_of_small_side():
    for n, alpha in valid_power_pairs([1, 2, 4, 8, 16, 32, 64, 128]):
        p = plan(n, alpha)
        assert p.depth == int(np.log2(min(p.n, p.m)))


def test_twiddle_tables_match_exact_angles():
    # Level k reads every 2**k-th root entry; that view must equal, bit for
    # bit, the table built from the exact angles of its own length.
    for n, alpha in valid_power_pairs([1, 2, 4, 16, 128, 1024]):
        p = plan(n, alpha)
        for k in range(p.depth):
            size = p.m >> k
            expected = np.exp(-2j * np.pi * np.arange(size // 2) / size)
            assert p.twiddles[::1 << k].tobytes() == expected.tobytes(), (n, str(alpha), k)
    with pytest.raises(ValueError):
        plan(16, DenseFactor(4)).twiddles[0] = 0  # read-only


def test_twiddle_recurrence_and_halving_properties():
    # W^(l+1) = W^1 * W^l, the half-size table is every other entry of the
    # full one, and the second half of the circle is the negated first half.
    for m in [4, 16, 256, 4096]:
        root = plan(m, DenseFactor(1)).twiddles
        w1 = root[1]
        step_error = np.max(np.abs(root[1:] - w1 * root[:-1]))
        assert step_error < 1e-12
        half = np.exp(-2j * np.pi * np.arange(m // 4) / (m // 2))
        assert np.max(np.abs(half - root[::2])) < 1e-15
        mirrored = np.exp(-2j * np.pi * (np.arange(m // 2) + m // 2) / m)
        assert np.max(np.abs(mirrored + root)) < 1e-12


# ------------------------------------------------------------- leaf and merge

def test_combine_identity_twiddle():
    out = combine(np.array([1.0 + 0j]), np.array([1.0 + 0j]), np.array([1.0 + 0j]))
    np.testing.assert_array_equal(out, [2.0 + 0j, 0.0 + 0j])


def test_combine_quarter_turn():
    out = combine(np.array([0j]), np.array([1.0 + 0j]), np.array([-1j]))
    np.testing.assert_array_equal(out, [-1j, 1j])


def test_combine_counts_and_stacked_rows():
    counter = OpCounter()
    y = np.ones((4, 2), dtype=complex)
    z = np.ones((4, 2), dtype=complex)
    out = combine(y, z, np.array([1.0, -1j]), counter)
    assert out.shape == (4, 4)
    assert counter.complex_mults == 8
    assert counter.complex_adds == 16


def test_combine_rejects_mismatched_halves():
    with pytest.raises(ValueError):
        combine(np.ones(2), np.ones(3), np.ones(2))
    with pytest.raises(ValueError):
        combine(np.ones(2), np.ones(2), np.ones(3))


# ------------------------------------------------------------- full transform

def test_impulse_spreads_flat():
    spectrum = alpha_fft(Signal([1.0, 0.0, 0.0, 0.0]), plan(4, DenseFactor(2)))
    np.testing.assert_array_equal(spectrum.bins, np.ones(8, dtype=complex))


@pytest.mark.parametrize("n", [1, 2, 4, 8, 16, 64, 256])
def test_matches_oracle_across_densities(n):
    rng = np.random.default_rng(n)
    for n_, alpha in valid_power_pairs([n]):
        signal = Signal(unit_disk(rng, n_))
        fast = alpha_fft(signal, plan(n_, alpha))
        reference = naive_forward(signal, alpha)
        scale = max(np.max(np.abs(reference.bins)), 1.0)
        assert np.max(np.abs(fast.bins - reference.bins)) < 1e-12 * scale


def test_alpha_one_matches_numpy_fft():
    rng = np.random.default_rng(77)
    samples = unit_disk(rng, 128)
    bins = transform_samples(samples, plan(128, DenseFactor(1)))
    assert np.max(np.abs(bins - np.fft.fft(samples))) < 1e-11


def test_predicted_mults_frozen_values():
    assert predicted_mults(plan(8, DenseFactor(1))) == 12
    assert predicted_mults(plan(8, DenseFactor(2))) == 24
    assert predicted_mults(plan(8, DenseFactor(1, 4))) == 1


def test_counter_matches_closed_forms():
    rng = np.random.default_rng(31)
    for n, alpha in valid_power_pairs([1, 2, 4, 8, 16, 32, 128]):
        p = plan(n, alpha)
        counter = OpCounter()
        alpha_fft(Signal(unit_disk(rng, n)), p, counter)
        assert counter.complex_mults == predicted_mults(p), (n, str(alpha))
        assert counter.complex_adds == predicted_adds(p), (n, str(alpha))
        # (alpha*N/2) multiplies per level, log2(min(N, alpha*N)) levels
        assert counter.complex_mults == (p.m // 2) * p.depth


def test_counter_reset_and_default_off():
    counter = OpCounter()
    p = plan(8, DenseFactor(2))
    signal = Signal(np.ones(8))
    alpha_fft(signal, p, counter)
    alpha_fft(signal, p)  # no counter: nothing accumulates anywhere
    assert counter.complex_mults == 24
    counter.reset()
    assert counter.complex_mults == 0 and counter.complex_adds == 0


def test_transform_rejects_wrong_length():
    p = plan(8, DenseFactor(2))
    with pytest.raises(ValueError):
        alpha_fft(Signal(np.ones(4)), p)
    with pytest.raises(ValueError):
        transform_samples(np.ones(4, dtype=complex), p)


def test_transform_is_deterministic():
    rng = np.random.default_rng(41)
    samples = unit_disk(rng, 64)
    p = plan(64, DenseFactor(4))
    first = transform_samples(samples, p)
    second = transform_samples(samples, p)
    assert np.array_equal(first, second)


def test_block_sum_leaf_transform():
    # alpha = 1/N collapses everything into the single bin sum(x).
    rng = np.random.default_rng(53)
    samples = unit_disk(rng, 16)
    counter = OpCounter()
    bins = transform_samples(samples, plan(16, DenseFactor(1, 16)), counter)
    assert bins.shape == (1,)
    assert abs(bins[0] - samples.sum()) < 1e-14
    assert counter.complex_mults == 0
    assert counter.complex_adds == 15


def test_spectrum_metadata_passthrough():
    signal = Signal(np.ones(8), duration=0.5)
    spectrum = alpha_fft(signal, plan(8, DenseFactor(2)))
    assert spectrum.origin_n == 8
    assert spectrum.alpha == DenseFactor(2)
    assert spectrum.duration == 0.5
