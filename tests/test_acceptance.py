"""Acceptance suite: the eight contract-level guarantees of this package.

Each test is one numbered criterion and prints a one-line ``PASS`` summary
with the measured figure next to its bound (run ``pytest -s`` to see them;
``pytest -v`` gives the per-criterion pass/fail status either way).

 1. Fast path matches the naive transform (rel. error <= 1e-10).
 2. Dense bins equal zero-padded FFT bins (abs. error <= 1e-12).
 3. Inverse recovers the signal (alpha >= 1) or its alias fold (alpha < 1).
 4. The exponential kernel is 1 on the alias comb and vanishes off it.
 5. Multiply counts and recursion depth match the closed forms exactly.
 6. Count savings over the baselines match the exact gap formulas.
 7. Denser bins track the analytic half-sine curve at least twice as well.
 8. Wall time: fast path beats padding, both beat the naive oracle >= 100x.
"""

import numpy as np

from alpha_spectra import (
    DenseFactor,
    OpCounter,
    Signal,
    alpha_fft,
    aliased_reconstruct,
    dft_matrix,
    max_curve_deviation,
    naive_inverse,
    orthogonality_kernel,
    plan,
    predicted_mults,
    run_grid,
    sine_demo,
    transform_samples,
    validate_pair,
)
from alpha_spectra.baseline import executor
from alpha_spectra.verify import random_unit_disk

POWERS = [2 ** k for k in range(1, 11)]  # 2 .. 1024
ALL_ALPHAS = [DenseFactor(1, 8), DenseFactor(1, 4), DenseFactor(1, 2),
              DenseFactor(1), DenseFactor(2), DenseFactor(4), DenseFactor(8)]
SEEDS = range(20)


def grid_pairs(sizes=POWERS, alphas=ALL_ALPHAS):
    """Every (N, alpha) with integer alpha*N >= 1 -- the criterion-1 grid."""
    for n in sizes:
        for alpha in alphas:
            if (n * alpha.p) % alpha.q == 0 and n * alpha.p >= alpha.q:
                yield n, alpha


def log2_int(n):
    return n.bit_length() - 1


def test_criterion_1_fast_path_matches_oracle():
    worst = 0.0
    configs = 0
    for n in POWERS:
        signals = np.column_stack(
            [random_unit_disk(np.random.default_rng(seed), n) for seed in SEEDS])
        for n_, alpha in grid_pairs([n]):
            reference = dft_matrix(n, alpha) @ signals
            p = plan(n, alpha)
            for column in range(signals.shape[1]):
                fast = transform_samples(np.ascontiguousarray(signals[:, column]), p)
                scale = max(np.max(np.abs(reference[:, column])), 1e-30)
                worst = max(worst, np.max(np.abs(fast - reference[:, column])) / scale)
            configs += 1
    assert worst <= 1e-10
    print(f"PASS criterion 1: fast path == naive transform, rel error "
          f"{worst:.2e} <= 1e-10 ({configs} configs x 20 seeds)")


def test_criterion_2_zero_padding_equivalence():
    worst = 0.0
    for n, alpha in grid_pairs([p for p in POWERS if p <= 512],
                               [DenseFactor(1), DenseFactor(2), DenseFactor(4), DenseFactor(8)]):
        for seed in range(3):
            signal = Signal(random_unit_disk(np.random.default_rng(seed), n))
            dense = alpha_fft(signal, plan(n, alpha))
            padded = executor(n, alpha, "zeropad")[0](signal)
            worst = max(worst, float(np.max(np.abs(dense.bins - padded.bins))))
    assert worst <= 1e-12
    print(f"PASS criterion 2: dense bins == zero-padded FFT bins, abs error "
          f"{worst:.2e} <= 1e-12")


def test_criterion_3_round_trip_and_aliasing():
    worst_trip = 0.0
    for n, alpha in grid_pairs([p for p in POWERS if p <= 256],
                               [DenseFactor(1), DenseFactor(2), DenseFactor(4)]):
        signal = Signal(random_unit_disk(np.random.default_rng(n), n))
        recovered = naive_inverse(alpha_fft(signal, plan(n, alpha)))
        worst_trip = max(worst_trip, float(np.max(np.abs(recovered.samples - signal.samples))))
    worst_alias = 0.0
    for n, alpha in grid_pairs([p for p in POWERS if p <= 256],
                               [DenseFactor(1, 2), DenseFactor(1, 4), DenseFactor(1, 8)]):
        signal = Signal(random_unit_disk(np.random.default_rng(n), n))
        recovered = naive_inverse(alpha_fft(signal, plan(n, alpha)))
        folded = aliased_reconstruct(signal, alpha)
        worst_alias = max(worst_alias, float(np.max(np.abs(recovered.samples - folded))))
    assert worst_trip <= 1e-10
    assert worst_alias <= 1e-10
    print(f"PASS criterion 3: round trip error {worst_trip:.2e} (alpha >= 1), "
          f"alias-fold error {worst_alias:.2e} (alpha < 1), both <= 1e-10")


def test_criterion_4_orthogonality_comb():
    worst_off = 0.0
    checked = 0
    alphas = [DenseFactor(1, 4), DenseFactor(1, 2), DenseFactor(1),
              DenseFactor(2), DenseFactor(4)]
    for n, alpha in grid_pairs(range(1, 65), alphas):
        _, m = validate_pair(n, alpha)
        for delta in range(-(n - 1), n):
            a, b = (delta, 0) if delta >= 0 else (0, -delta)
            value = orthogonality_kernel(a, b, n, alpha)
            if delta % m == 0:
                assert value == 1.0  # comb points come out exact
            else:
                worst_off = max(worst_off, abs(value))
            checked += 1
    assert worst_off < 1e-12
    print(f"PASS criterion 4: kernel == 1 on the comb, off-comb max "
          f"{worst_off:.2e} < 1e-12 ({checked} index pairs)")


def test_criterion_5_count_exactness():
    rng = np.random.default_rng(5)
    for n, alpha in grid_pairs():
        p = plan(n, alpha)
        counter = OpCounter()
        transform_samples(random_unit_disk(rng, n), p, counter)
        m = p.m
        small = min(n, m)
        assert p.depth == log2_int(small)
        assert counter.complex_mults == predicted_mults(p) == (m // 2) * log2_int(small)
        if alpha.p >= alpha.q:  # here max(N, M) = M and the two forms coincide
            assert counter.complex_mults == (max(n, m) // 2) * log2_int(small)
    print("PASS criterion 5: measured multiplies == (alpha*N/2)*log2(min(N, alpha*N)) "
          "and depth == log2(min(N, alpha*N)), integer-exact on the full grid")


def test_criterion_6_savings_formulas():
    sizes = [64, 128, 256, 512, 1024]
    rng = np.random.default_rng(6)

    for n, alpha in grid_pairs(sizes, [DenseFactor(2), DenseFactor(4), DenseFactor(8)]):
        signal = Signal(random_unit_disk(rng, n))
        fast, padded = OpCounter(), OpCounter()
        alpha_fft(signal, plan(n, alpha), fast)
        executor(n, alpha, "zeropad")[0](signal, padded)
        m = n * alpha.p
        gap = padded.complex_mults - fast.complex_mults
        assert gap == (m // 2) * log2_int(alpha.p) and gap > 0

    for n, alpha in grid_pairs(sizes, [DenseFactor(1, 2), DenseFactor(1, 4), DenseFactor(1, 8)]):
        m = n // alpha.q
        if m < 16:
            continue
        signal = Signal(random_unit_disk(rng, n))
        fast, full = OpCounter(), OpCounter()
        alpha_fft(signal, plan(n, alpha), fast)
        alpha_fft(signal, plan(n, DenseFactor(1)), full)
        gap = full.complex_mults - fast.complex_mults
        # The exact gap; it always clears the per-level floor (N/2)*log2(1/alpha).
        assert gap == (n // 2) * log2_int(n) - (m // 2) * log2_int(m)
        assert gap >= (n // 2) * log2_int(alpha.q)
    print("PASS criterion 6: zeropad-vs-dense gap == (alpha*N/2)*log2(alpha); "
          "fft-vs-thin gap == (N/2)log2 N - (M/2)log2 M, >= (N/2)log2(1/alpha) floor")


def test_criterion_7_half_sine_figure():
    curves = sine_demo(64, (1, 8))
    coarse = curves[DenseFactor(1)]
    dense = curves[DenseFactor(8)]
    dev_coarse = max_curve_deviation(coarse)
    dev_dense = max_curve_deviation(dense)
    assert dev_dense <= 0.5 * dev_coarse
    shared = np.max(np.abs(dense.spectrum.bins[::8] - coarse.spectrum.bins))
    assert shared <= 1e-12
    print(f"PASS criterion 7: deviation {dev_dense:.4f} (alpha=8) <= half of "
          f"{dev_coarse:.4f} (alpha=1); shared bins agree to {shared:.1e}")


def test_criterion_8_wall_time_sanity():
    records = {r.method: r for r in run_grid(
        [4096], [DenseFactor(8)], methods=("fft", "zeropad", "naive"),
        reps=20)}
    fast = records["fft"].wall_time
    padded = records["zeropad"].wall_time
    naive = records["naive"].wall_time

    def walls(slow, quick):
        """Two walls, each the minimum of its repetitions, and their ratio."""
        a, b = records[slow], records[quick]
        return (f"{slow} {a.wall_time * 1e3:.3f} ms (min of {a.repetitions}) / "
                f"{quick} {b.wall_time * 1e3:.3f} ms (min of {b.repetitions}) = "
                f"{a.wall_time / b.wall_time:.2f}")

    assert fast < padded, walls("zeropad", "fft")
    assert naive / fast >= 100, walls("naive", "fft")
    assert naive / padded >= 100, walls("naive", "zeropad")
    print(f"PASS criterion 8: N=4096 alpha=8 walls fast={fast * 1e3:.2f} ms < "
          f"zeropad={padded * 1e3:.2f} ms; naive/fast={naive / fast:.0f}x, "
          f"naive/zeropad={naive / padded:.0f}x (both >= 100x)")
