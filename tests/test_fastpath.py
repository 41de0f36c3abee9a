import sys
import threading
import tracemalloc

import numpy as np
import pytest

from alpha_spectra import baseline, fastpath
from alpha_spectra import (
    DenseFactor,
    OpCounter,
    Signal,
    UnsupportedSizeError,
    alpha_fft,
    naive_forward,
    plan,
    predicted_adds,
    predicted_mults,
    transform_samples,
)
from alpha_spectra.verify import random_unit_disk
from test_accuracy import PAIRS as ACCURACY_PAIRS

POWER_ALPHAS = [DenseFactor(1, 8), DenseFactor(1, 4), DenseFactor(1, 2),
                DenseFactor(1), DenseFactor(2), DenseFactor(4), DenseFactor(8)]


def valid_power_pairs(sizes):
    for n in sizes:
        for alpha in POWER_ALPHAS:
            if (n * alpha.p) % alpha.q == 0:
                yield n, alpha


# ---------------------------------------------------------------- plan shape

def test_plan_depth_example():
    p = plan(8, DenseFactor(2))
    assert p.depth == 3
    assert (p.m, p.n) == (16, 8)
    assert p.twiddles.shape == (8,)
    assert [len(p.twiddles[::1 << k]) for k in range(p.depth)] == [8, 4, 2]


def test_plan_block_sum_leaf():
    p = plan(8, DenseFactor(1, 4))
    assert p.depth == 1  # log2(min(8, 2))
    assert (p.m, p.n) == (2, 8)  # each of the 2 leaf rows sums a block of 4
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


def fresh_table(m):
    """The twiddle table of alpha*N = m, evaluated afresh."""
    return np.exp(-2j * np.pi * np.arange(m // 2) / m)


@pytest.fixture
def no_root(monkeypatch):
    """Start with no kept table, so that ``plan`` builds its own."""
    monkeypatch.setattr(fastpath, "_root", np.empty(0, dtype=np.complex128))


@pytest.mark.parametrize("m", [1 << 19, 1 << 20, 1 << 21])
def test_long_twiddle_tables_are_the_fresh_array_expression(no_root, m):
    # Tables this long run numpy's vector loops over long runs, and the table
    # is built in place there; its bits must still be those of the expression.
    expected = np.exp(-2j * np.pi * np.arange(m // 2) / m)
    assert plan(m, DenseFactor(1)).twiddles.tobytes() == expected.tobytes()


def traced_peak(call):
    """Peak traced memory, in bytes, of ``call()``."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_plan_builds_its_table_in_place(no_root):
    table_bytes = 16 * (65536 * 8 // 2)
    peak = traced_peak(lambda: plan(65536, DenseFactor(8)))
    assert peak <= 1.1 * table_bytes, peak / table_bytes


def test_repeated_plan_reuses_its_table(no_root):
    table_bytes = 16 * (65536 * 8 // 2)
    first = plan(65536, DenseFactor(8))
    peak = traced_peak(lambda: plan(65536, DenseFactor(8)))
    assert peak < 0.01 * table_bytes, peak / table_bytes
    again = plan(65536, DenseFactor(8))
    assert again.twiddles is first.twiddles
    assert again.twiddles.tobytes() == fresh_table(65536 * 8).tobytes()


def test_smaller_tables_are_fresh_copies_of_the_root(no_root):
    root = plan(1 << 20, DenseFactor(1)).twiddles
    assert fastpath._root is root
    for k in range(1, 20):
        table = plan(1 << k, DenseFactor(1)).twiddles
        assert table.flags.c_contiguous and not table.flags.writeable, k
        assert not np.shares_memory(table, root), k
        assert table.tobytes() == fresh_table(1 << k).tobytes(), k
    assert fastpath._root is root


def test_tables_over_the_bound_are_not_kept(no_root, monkeypatch):
    kept = plan(1024, DenseFactor(1)).twiddles
    monkeypatch.setattr(fastpath, "_ROOT_BYTES", kept.nbytes)
    table = plan(2048, DenseFactor(1)).twiddles
    assert table.tobytes() == fresh_table(2048).tobytes()
    assert fastpath._root is kept
    assert plan(512, DenseFactor(1)).twiddles.tobytes() == fresh_table(512).tobytes()


def test_kept_table_never_exceeds_the_bound(no_root):
    # Rising, then falling: every alpha*N up to 2**24 either becomes the
    # root within the bound or is served from it.
    for k in [*range(1, 25), *range(24, 0, -1)]:
        plan(1 << k, DenseFactor(1))
        assert fastpath._root.nbytes <= fastpath._ROOT_BYTES, k
    assert fastpath._root.nbytes == fastpath._ROOT_BYTES


def test_threads_planning_at_once_get_fresh_tables(no_root):
    # Planners race a thread that keeps swapping the root among valid tables
    # of other sizes, as planners that miss at once would; every table they
    # get must still be bitwise the fresh one.
    tables = {k: fresh_table(1 << k) for k in range(1, 19)}
    for table in tables.values():
        table.setflags(write=False)
    failures = []
    done = threading.Event()

    def planner(seed):
        rng = np.random.default_rng(seed)
        for k in rng.integers(1, 19, size=300).tolist():
            if plan(1 << k, DenseFactor(1)).twiddles.tobytes() != tables[k].tobytes():
                failures.append(k)

    def swapper():
        while not done.is_set():
            for table in tables.values():
                fastpath._root = table

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        swapping = threading.Thread(target=swapper)
        planners = [threading.Thread(target=planner, args=(seed,)) for seed in range(3)]
        for thread in [swapping, *planners]:
            thread.start()
        for thread in planners:
            thread.join(timeout=60)
        done.set()
        swapping.join(timeout=60)
    finally:
        done.set()
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in [swapping, *planners])
    assert not failures, failures


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

def reference_transform(x, p):
    """The level loop built from fresh arrays: t = W*z, then [y + t, y - t]."""
    if p.m >= p.n:
        level = np.broadcast_to(x[:, None], (p.n, p.m // p.n))
    else:
        level = x.reshape(-1, p.m).sum(axis=0)[:, None]
    for k in range(p.depth - 1, -1, -1):
        half = level.shape[0] // 2
        t = np.ascontiguousarray(p.twiddles[::1 << k]) * level[half:]
        level = np.concatenate([level[:half] + t, level[:half] - t], axis=-1)
    return np.array(level, dtype=np.complex128).reshape(p.m)


def test_transform_identity_twiddle():
    out = transform_samples(np.array([1.0 + 0j, 1.0 + 0j]), plan(2, DenseFactor(1)))
    np.testing.assert_array_equal(out, [2.0 + 0j, 0.0 + 0j])


def test_transform_quarter_turn():
    # The table's W^1 = exp(-i*pi/2) carries a 6e-17 real part.
    out = transform_samples(np.array([0j, 1.0 + 0j]), plan(2, DenseFactor(2)))
    np.testing.assert_allclose(out, [1, -1j, -1, 1j], rtol=0, atol=1e-15)


def assert_bitwise_reference(n, alpha, rng):
    """Bins bitwise those of the fresh-array loop, counts those of the closed forms."""
    p = plan(n, alpha)
    samples = random_unit_disk(rng, n)
    counter = OpCounter()
    bins = transform_samples(samples, p, counter)
    assert bins.dtype == np.complex128 and bins.shape == (p.m,)
    assert bins.tobytes() == reference_transform(samples, p).tobytes(), (n, str(alpha))
    assert counter.complex_mults == predicted_mults(p), (n, str(alpha))
    assert counter.complex_adds == predicted_adds(p), (n, str(alpha))


def test_levels_are_bitwise_the_fresh_array_loop():
    rng = np.random.default_rng(67)
    pairs = list(valid_power_pairs([1 << e for e in range(11)]))
    pairs += [(65536, DenseFactor(p, q)) for p, q in [(1, 8), (1, 2), (1, 1), (2, 1), (8, 1)]]
    # alpha*N above one block of 32768 values: there are alpha*N / 32768
    # residue classes, or one per leaf row where the leaf rows are no more
    # than that ((2, 2**15), (2, 2**16), (4, 2**15)) and phase 1 only fans
    # the samples out.
    pairs += [(2, DenseFactor(1 << 15)), (2, DenseFactor(1 << 16)), (4, DenseFactor(1 << 15)),
              (16, DenseFactor(1 << 12)), (1 << 17, DenseFactor(1, 2)), (1 << 18, DenseFactor(1, 4))]
    for n, alpha in pairs:
        assert_bitwise_reference(n, alpha, rng)


@pytest.mark.parametrize("block", [4, 64, 1024])
def test_small_blocks_are_bitwise_the_fresh_array_loop(monkeypatch, block):
    # Shrunk blocks run both phases on small inputs: blocks of 4 values
    # outnumber the leaf rows at alpha = 8, and at 64 values most phase-2
    # blocks are held to their floor of 16 columns.
    monkeypatch.setattr(fastpath, "_BLOCK_BINS", block)
    rng = np.random.default_rng(block)
    for n, alpha in valid_power_pairs([1 << e for e in range(11)]):
        assert_bitwise_reference(n, alpha, rng)


@pytest.mark.parametrize(
    "alpha", [DenseFactor(8), DenseFactor(1), DenseFactor(1, 2), DenseFactor(1, 8)], ids=str
)
def test_transform_memory_is_under_three_bin_arrays(alpha):
    # The bin array, which also holds the leaves (the block sums for
    # alpha < 1), one work block of at most alpha*N values and the
    # contiguous phase-1 twiddle copies (under alpha*N/2 values) stay below
    # 3 * 16 * alpha*N bytes: 2.0x at alpha <= 1 here, 1.13x at alpha = 8.
    # alpha*N is at least 65536 because a ufunc may also take an iterator
    # buffer, which is sizeable next to a small bin array.
    p = plan(65536 * alpha.q, alpha)
    samples = random_unit_disk(np.random.default_rng(71), p.n)
    peak = traced_peak(lambda: transform_samples(samples, p))
    assert peak < 3 * 16 * p.m, peak / (16 * p.m)


def test_alpha_fft_adds_no_bin_array():
    # The Spectrum takes over the kernel's bins instead of copying them.
    p = plan(65536, DenseFactor(8))
    signal = Signal(random_unit_disk(np.random.default_rng(79), p.n))
    kernel = traced_peak(lambda: transform_samples(signal.samples, p))
    wrapped = traced_peak(lambda: alpha_fft(signal, p))
    assert wrapped <= 1.03 * kernel, wrapped / kernel


def test_results_own_their_memory():
    p = plan(64, DenseFactor(4))
    table = p.twiddles.copy()
    rng = np.random.default_rng(73)
    first = transform_samples(random_unit_disk(rng, 64), p)
    second = transform_samples(random_unit_disk(rng, 64), p)
    assert not np.shares_memory(first, second)
    assert not np.shares_memory(first, p.twiddles)
    # alpha_fft's Spectrum holds such an array itself, read-only.
    signal = Signal(random_unit_disk(rng, 64))
    spectrum = alpha_fft(signal, p)
    assert not spectrum.bins.flags.writeable
    assert not np.shares_memory(spectrum.bins, p.twiddles)
    assert not np.shares_memory(spectrum.bins, signal.samples)
    assert not p.twiddles.flags.writeable
    assert p.twiddles.tobytes() == table.tobytes()


# The accuracy grid, plus depth 0: one sample, one bin.
ALIGNED_PAIRS = ACCURACY_PAIRS + [(1, DenseFactor(1))]


@pytest.mark.parametrize("size", [1, 3, 4096])
def test_empty_starts_on_a_cache_line(size):
    arrays = [fastpath._empty(size) for _ in range(3)]
    for array in arrays:
        assert array.ctypes.data % 64 == 0
        assert array.dtype == np.complex128 and array.shape == (size,)
        assert array.flags.writeable and array.flags.c_contiguous
    assert not np.shares_memory(arrays[0], arrays[1])
    # The work block at depth 0 holds nothing, so it has no data to align.
    assert fastpath._empty(0).shape == (0,)


@pytest.mark.parametrize("n, alpha", ALIGNED_PAIRS, ids=str)
def test_bins_start_on_a_cache_line_wherever_the_samples_start(n, alpha):
    p = plan(n, alpha)
    samples = random_unit_disk(np.random.default_rng(n), n)
    first, second = transform_samples(samples, p), transform_samples(samples, p)
    for bins in (first, second):
        assert bins.ctypes.data % 64 == 0
        assert not np.shares_memory(bins, samples)
        assert not np.shares_memory(bins, p.twiddles)
    assert not np.shares_memory(first, second)
    # Samples 16 bytes past a boundary, numpy's own alignment, give the same bins.
    shifted = fastpath._empty(n + 1)[1:]
    shifted[...] = samples
    assert shifted.ctypes.data % 64 == 16
    assert transform_samples(shifted, p).tobytes() == first.tobytes()


@pytest.mark.parametrize("n, alpha", [(n, a) for n, a in ALIGNED_PAIRS if a.p >= a.q], ids=str)
def test_zeropad_bins_start_on_a_cache_line(n, alpha):
    run, _ = baseline.executor(n, alpha, "zeropad")
    signal = Signal(random_unit_disk(np.random.default_rng(n), n))
    first, second = run(signal).bins, run(signal).bins
    for bins in (first, second):
        assert bins.ctypes.data % 64 == 0
        assert not np.shares_memory(bins, signal.samples)
        assert not np.shares_memory(bins, fastpath._root)
    assert not np.shares_memory(first, second)
    assert first.tobytes() == second.tobytes()


# ------------------------------------------------------------- full transform

def test_impulse_spreads_flat():
    spectrum = alpha_fft(Signal([1.0, 0.0, 0.0, 0.0]), plan(4, DenseFactor(2)))
    np.testing.assert_array_equal(spectrum.bins, np.ones(8, dtype=complex))


@pytest.mark.parametrize("n", [1, 2, 4, 8, 16, 64, 256])
def test_matches_oracle_across_densities(n):
    rng = np.random.default_rng(n)
    for n_, alpha in valid_power_pairs([n]):
        signal = Signal(random_unit_disk(rng, n_))
        fast = alpha_fft(signal, plan(n_, alpha))
        reference = naive_forward(signal, alpha)
        scale = max(np.max(np.abs(reference.bins)), 1.0)
        assert np.max(np.abs(fast.bins - reference.bins)) < 1e-12 * scale


def test_alpha_one_matches_numpy_fft():
    rng = np.random.default_rng(77)
    samples = random_unit_disk(rng, 128)
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
        alpha_fft(Signal(random_unit_disk(rng, n)), p, counter)
        assert counter.complex_mults == predicted_mults(p), (n, str(alpha))
        assert counter.complex_adds == predicted_adds(p), (n, str(alpha))
        # (alpha*N/2) multiplies per level, log2(min(N, alpha*N)) levels
        assert counter.complex_mults == (p.m // 2) * p.depth


def test_counter_default_off():
    counter = OpCounter()
    p = plan(8, DenseFactor(2))
    signal = Signal(np.ones(8))
    alpha_fft(signal, p, counter)
    alpha_fft(signal, p)  # no counter: nothing accumulates anywhere
    assert counter.complex_mults == 24


def test_transform_rejects_wrong_length():
    p = plan(8, DenseFactor(2))
    with pytest.raises(ValueError):
        alpha_fft(Signal(np.ones(4)), p)
    with pytest.raises(ValueError):
        transform_samples(np.ones(4, dtype=complex), p)


def test_transform_is_deterministic():
    rng = np.random.default_rng(41)
    samples = random_unit_disk(rng, 64)
    p = plan(64, DenseFactor(4))
    first = transform_samples(samples, p)
    second = transform_samples(samples, p)
    assert np.array_equal(first, second)


def test_transform_leaves_numpys_buffer_size_as_it_found_it():
    # The kernel sets a 16-value ufunc buffer inside np.errstate(); numpy
    # 2.0 and later restore the caller's size when that scope exits.
    samples = random_unit_disk(np.random.default_rng(43), 64)
    before = np.getbufsize()
    np.setbufsize(4096)
    try:
        transform_samples(samples, plan(64, DenseFactor(4)))
        assert np.getbufsize() == 4096
    finally:
        np.setbufsize(before)


def test_block_sum_leaf_transform():
    # alpha = 1/N collapses everything into the single bin sum(x).
    rng = np.random.default_rng(53)
    samples = random_unit_disk(rng, 16)
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
