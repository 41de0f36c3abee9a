"""Divide-and-conquer evaluation of the density-alpha transform.

The (alpha*N) x N transform matrix splits by even/odd signal index into two
(alpha*N/2) x (N/2) subproblems of the same aspect ratio, glued by one
butterfly pass:

    X_l            = Y_l + W^l Z_l
    X_{l+alpha*N/2} = Y_l - W^l Z_l,      W = exp(-2j*pi/(alpha*N))

Splitting stops after log2(min(N, alpha*N)) halvings, when the matrix
degenerates to a column (alpha x 1: one sample fans out to alpha equal
bins) or a row (1 x (1/alpha): a block of 1/alpha samples collapses to a
plain sum, no multiplies).  Both N and alpha*N must therefore be powers of
two.  The sweep below walks that recursion level-synchronously: row r of
the working array is the subspectrum of the strided view x[r::K], so no
input permutation or bit-reversal pass ever happens.

Cost accounting is exact, not asymptotic: each butterfly level multiplies
half of the alpha*N running values by a twiddle, so a transform performs
(alpha*N/2) * log2(min(N, alpha*N)) complex multiplies -- fewer than the
(alpha*N/2) * log2(alpha*N) of an FFT over the zero-padded signal whenever
alpha > 1.
"""

import enum
from dataclasses import dataclass

import numpy as np

from .core import (
    DenseFactor,
    Signal,
    Spectrum,
    UnsupportedSizeError,
    is_power_of_two,
    validate_pair,
)


class LeafKind(enum.Enum):
    SINGLE_SAMPLE = "single_sample"  # alpha >= 1: terminal matrix is alpha x 1
    BLOCK_SUM = "block_sum"          # alpha < 1: terminal matrix is 1 x (1/alpha)


@dataclass
class OpCounter:
    """Complex multiply/add tally for a single transform invocation.

    Counters only ever grow while a transform runs; reset (or use a fresh
    instance) between runs.  Counting a multiply by a unit twiddle still
    costs one multiply -- the convention matches what the kernel executes,
    which is what makes the closed-form count an integer identity.
    """

    complex_mults: int = 0
    complex_adds: int = 0

    def reset(self) -> None:
        self.complex_mults = 0
        self.complex_adds = 0


@dataclass(frozen=True, eq=False)
class Plan:
    """Precomputed recursion shape and twiddle table for one (N, alpha).

    ``twiddles`` is the read-only root table exp(-2j*pi*l/m), l < m/2
    (empty when depth is 0).  The combines whose output length is m >> k use every 2**k-th entry,
    twiddles[::1 << k], which is bitwise the table built from the exact
    angles 2*pi*l/(m >> k): both angles are the same quotient scaled by a
    power of two.
    """

    n: int
    m: int
    alpha: DenseFactor
    depth: int
    leaf: LeafKind
    twiddles: np.ndarray

    @property
    def shape(self) -> tuple:
        return (self.m, self.n)


def plan(n: int, alpha: DenseFactor) -> Plan:
    """Validate (N, alpha) for the fast path and precompute its twiddles.

    Raises
    ------
    IncompatibleAlphaError
        When alpha*N is not a positive integer.
    UnsupportedSizeError
        When N or alpha*N is not a power of two; the naive transform
        remains available for such sizes.
    """
    n, m = validate_pair(n, alpha)
    if not (is_power_of_two(n) and is_power_of_two(m)):
        raise UnsupportedSizeError(
            f"fast path needs power-of-two N and alpha*N, got N={n}, "
            f"alpha*N={m}; use the naive transform for this pair"
        )
    depth = min(n, m).bit_length() - 1
    leaf = LeafKind.SINGLE_SAMPLE if alpha.p >= alpha.q else LeafKind.BLOCK_SUM
    # With no butterfly level (N = 1 or alpha*N = 1) no entry is ever read.
    twiddles = np.exp(-2j * np.pi * np.arange(m // 2 if depth else 0) / m)
    twiddles.setflags(write=False)
    return Plan(n, m, alpha, depth, leaf, twiddles)


def predicted_mults(p: Plan) -> int:
    """Exact complex-multiply count of one transform under ``p``.

    Every butterfly level multiplies half of the alpha*N running values, and
    there are log2(min(N, alpha*N)) levels: (alpha*N/2) * depth.  Leaves are
    free of multiplies in both regimes (the column leaf copies one sample,
    the row leaf is a bare sum).
    """
    return (p.m // 2) * p.depth


def predicted_adds(p: Plan) -> int:
    """Exact complex-add count: alpha*N per level, plus the block-sum leaves."""
    leaf_adds = p.n - p.m if p.m < p.n else 0
    return p.m * p.depth + leaf_adds


def combine(y, z, twiddles, counter: OpCounter | None = None) -> np.ndarray:
    """Butterfly merge [y + w*z, y - w*z] along the last axis.

    y and z are same-shape half-spectra and ``twiddles`` the matching table
    (half the output length).  Works on stacked rows as well as single
    nodes; per output row it costs exactly len(twiddles) multiplies and
    2*len(twiddles) adds.
    """
    y = np.asarray(y)
    z = np.asarray(z)
    if y.shape != z.shape:
        raise ValueError(f"half-spectra differ in shape: {y.shape} vs {z.shape}")
    if y.shape[-1] != twiddles.shape[-1]:
        raise ValueError(
            f"twiddle table length {twiddles.shape[-1]} does not match "
            f"half-spectrum length {y.shape[-1]}"
        )
    t = twiddles * z
    if counter is not None:
        counter.complex_mults += z.size
        counter.complex_adds += 2 * y.size
    return np.concatenate([y + t, y - t], axis=-1)


def transform_samples(x: np.ndarray, p: Plan, counter: OpCounter | None = None) -> np.ndarray:
    """Run the planned transform on a bare sample array; returns the bin array."""
    if x.shape != (p.n,):
        raise ValueError(f"plan is for N={p.n}, got {x.shape[0] if x.ndim == 1 else x.shape} samples")
    if p.leaf is LeafKind.SINGLE_SAMPLE:
        # Row r is the (alpha*N/N')-point subspectrum of x[r::N] == [x_r]:
        # one sample fanned out across m//n equal bins.
        level = np.broadcast_to(x[:, None], (p.n, p.m // p.n))
    else:
        # Row r is the 1-bin subspectrum of the block x[r::M]: its sum.
        level = x.reshape(-1, p.m).sum(axis=0)[:, None]
        if counter is not None:
            counter.complex_adds += p.n - p.m
    for k in range(p.depth - 1, -1, -1):
        half = level.shape[0] // 2
        # Rows [0, half) are the even-index children of rows in the merged
        # level, rows [half, 2*half) their odd siblings (residues r and
        # r + half modulo the parent stride).
        # A contiguous copy of the strided table: the butterfly multiplies
        # it against every row, and a strided operand slows that product.
        twiddles = np.ascontiguousarray(p.twiddles[::1 << k])
        level = combine(level[:half], level[half:], twiddles, counter)
    return np.array(level, dtype=np.complex128).reshape(p.m)


def alpha_fft(signal: Signal, p: Plan, counter: OpCounter | None = None) -> Spectrum:
    """Fast density-alpha transform of ``signal`` under a matching plan.

    Numerically equivalent to ``oracle.naive_forward`` (same unscaled bins)
    at a cost of predicted_mults(p) complex multiplies, which the optional
    ``counter`` verifies empirically.
    """
    if len(signal) != p.n:
        raise ValueError(f"plan is for N={p.n}, signal has {len(signal)} samples")
    bins = transform_samples(signal.samples, p, counter)
    return Spectrum(bins, p.n, p.alpha, signal.duration)
