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
two.  Level by level, row r of the working array is the subspectrum of the
strided view x[r::K] for the level's K rows, so no input permutation or
bit-reversal pass ever happens.

The levels run in two phases so that each one works on a block of
_BLOCK_BINS values, which stays in cache, instead of streaming every
alpha*N-bin level through memory (the four-step split: Bailey 1990, "FFTs
in external or hierarchical memory").  Leaf rows r, r+S, r+2S, ... only
ever merge with each other until S rows are left, so

* phase 1 runs each of the S residue classes as its own transform of
  alpha*N/S bins, in the row of the (S, alpha*N/S) bin array that its
  result ends in, and
* phase 2 runs the last log2(S) levels over that array one block of
  columns at a time.

S is the number of blocks in alpha*N bins, at most the number of leaf
rows; at alpha*N <= _BLOCK_BINS it is 1 and phase 1 is the whole
transform.  Each block's levels alternate between its place in the bin
array and one work block, and every butterfly multiplies the same operands
by the same twiddle entry as a level-by-level sweep would, so the bins are
bitwise those of that sweep.

Cost accounting is exact, not asymptotic: each butterfly level multiplies
half of the alpha*N running values by a twiddle, so a transform performs
(alpha*N/2) * log2(min(N, alpha*N)) complex multiplies -- fewer than the
(alpha*N/2) * log2(alpha*N) of an FFT over the zero-padded signal whenever
alpha > 1.

One twiddle table outlives the plans.  The module keeps a read-only root,
the table of the largest alpha*N planned so far whose size is within
_ROOT_BYTES, and a plan for a smaller alpha*N copies every k-th entry of it
instead of evaluating exp again; the process retains that one table, at
most _ROOT_BYTES, for as long as it runs.

The bin array and the work block start on a 64-byte boundary, one cache
line and one AVX-512 vector, wherever the allocator places them: numpy
aligns its data to 16 bytes only, and an mmapped array starts 16 bytes past
a page, so every full-width vector load would span two cache lines (FFTW
aligns its arrays for the same reason: Frigo & Johnson 2005, "The Design
and Implementation of FFTW3").
"""

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


#: Values one block of the sweep holds: 512 KiB of complex128, the block
#: budget of the oracle, small enough to stay in cache across its levels.
_BLOCK_BINS = 32768

#: Fewest columns in a phase-2 block, and numpy's ufunc buffer size (in
#: values) while the levels run.  With its default buffer of 8192 values,
#: numpy copies operands whose contiguous runs are shorter than about half
#: the buffer through it; at (65536, 8) those copies took nearly half of
#: the blocked kernel's time.  A buffer no longer than the blocks' runs
#: avoids them.
_MIN_RUN = 16

#: Largest twiddle table, in bytes, that stays alive between plans: 16 MiB,
#: the table of alpha*N = 2**21.
_ROOT_BYTES = 1 << 24

#: The read-only table of the largest alpha*N planned so far within
#: _ROOT_BYTES; plan() replaces it, and never writes into it.
_root = np.empty(0, dtype=np.complex128)


@dataclass
class OpCounter:
    """Complex multiply/add tally for a single transform invocation.

    Counters only ever grow while a transform runs; use a fresh instance
    per run.  Counting a multiply by a unit twiddle still costs one
    multiply -- the convention matches what the kernel executes, which is
    what makes the closed-form count an integer identity.
    """

    complex_mults: int = 0
    complex_adds: int = 0


@dataclass(frozen=True, eq=False)
class Plan:
    """Precomputed recursion shape and twiddle table for one (N, alpha).

    The sizes fix the leaves: alpha*N >= N, one sample fanned out per leaf
    row; alpha*N < N, one block sum.  ``twiddles`` is the read-only root
    table exp(-2j*pi*l/m), l < m/2 (empty when depth is 0).  The butterfly
    level whose output rows have length m >> k uses every 2**k-th entry,
    twiddles[::1 << k], which is bitwise the table built from the exact
    angles 2*pi*l/(m >> k): both angles are the same quotient scaled by a
    power of two.  Phase 1 of the sweep reads its levels' entries through
    contiguous copies of these views; phase 2 reads the views themselves, a
    block of columns at a time.  Plans of the same alpha*N may share one
    table, the module's root, and no transform result shares its memory.
    """

    n: int
    m: int
    alpha: DenseFactor
    depth: int
    twiddles: np.ndarray


def plan(n: int, alpha: DenseFactor) -> Plan:
    """Validate (N, alpha) for the fast path and precompute its twiddles.

    The table of alpha*N/2 entries comes from the module's root table of
    M/2 entries, M the largest alpha*N planned so far within _ROOT_BYTES:

    * alpha*N = M: the plan gets the root itself;
    * alpha*N < M: a contiguous, read-only copy of every (M/(alpha*N))-th
      entry of the root, bitwise the table built afresh (see ``Plan``);
    * alpha*N > M: the table is built in place, in the one array the plan
      keeps, with no temporary of its size, and becomes the root if it
      fits in _ROOT_BYTES.

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
    global _root
    depth = min(n, m).bit_length() - 1
    # With no butterfly level (N = 1 or alpha*N = 1) no entry is ever read.
    size = m // 2 if depth else 0
    # One read of the global, so the stride and the entries are one table's.
    # Threads that miss at once may store their tables in either order; a
    # smaller root than the largest planned only costs a later rebuild.
    root = _root
    if size == root.size > 0:
        twiddles = root
    elif 0 < size < root.size:
        twiddles = root[:: root.size // size].copy()
        twiddles.setflags(write=False)
    else:
        # Bitwise np.exp(-2j * np.pi * np.arange(k) / m): the same complex128
        # operations on the same values, the scalar still the first factor.
        twiddles = np.arange(size, dtype=np.complex128)
        np.multiply(-2j * np.pi, twiddles, out=twiddles)
        np.divide(twiddles, m, out=twiddles)
        np.exp(twiddles, out=twiddles)
        twiddles.setflags(write=False)
        if size > root.size and twiddles.nbytes <= _ROOT_BYTES:
            _root = twiddles
    return Plan(n, m, alpha, depth, twiddles)


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


def _empty(size):
    """A fresh complex128 array of ``size`` values whose data starts on a
    64-byte boundary: a view into a byte buffer 64 bytes longer than needed.
    """
    raw = np.empty(16 * size + 64, dtype=np.uint8)
    start = -raw.ctypes.data % 64
    return raw[start:start + 16 * size].view(np.complex128)


def _butterfly(twiddles, level, out, counter):
    """One butterfly level: out[:, 0] = y + W*z and out[:, 1] = y - W*z.

    ``y`` and ``z`` are the first and second halves of ``level``'s rows: the
    even-index children of the merged rows and their odd siblings (residues
    r and r + half modulo the merged level's stride).  ``twiddles``
    broadcasts against one half.  W*z waits in out[:, 1], so a level needs
    no scratch.  The twiddle stays the first factor: numpy's vector complex
    product is not commutative to the last bit.
    """
    half = level.shape[0] // 2
    y, z = level[:half], level[half:]
    low, high = out[:, 0], out[:, 1]
    np.multiply(twiddles, z, out=high)
    np.add(y, high, out=low)
    np.subtract(y, high, out=high)
    if counter is not None:
        counter.complex_mults += high.size
        counter.complex_adds += 2 * high.size


def transform_samples(x: np.ndarray, p: Plan, counter: OpCounter | None = None) -> np.ndarray:
    """Run the planned transform on a bare sample array; returns the bin array.

    Leaves by size: alpha*N >= N, one sample fanned out per leaf row;
    alpha*N < N, one block sum.  The bins are a fresh, writable array that
    the caller owns: it shares no memory with another result, with ``p`` or
    with ``x``, so ``alpha_fft`` hands it to its Spectrum without a copy.
    Besides the bins, a call allocates one work block of at most alpha*N
    values and contiguous copies of the phase-1 twiddle slices (under
    alpha*N/2 values).  The bins and the work block start on a 64-byte
    boundary (``_empty``), so no full-width vector load of them spans two
    cache lines, wherever the allocator puts them.  With a ``counter``, each
    butterfly adds one multiply and two adds where it runs: alpha*N/2
    multiplies and alpha*N adds per level.
    """
    if x.shape != (p.n,):
        raise ValueError(f"plan is for N={p.n}, got {x.shape[0] if x.ndim == 1 else x.shape} samples")
    m = p.m
    leaves = min(p.n, m)
    classes = min(leaves, max(1, m // _BLOCK_BINS))
    span, height = m // classes, leaves // classes
    late = classes.bit_length() - 1
    early = p.depth - late
    width = min(span, max(_BLOCK_BINS // classes, _MIN_RUN))
    bins = _empty(m)
    rows = bins.reshape(classes, span)
    # Class r's leaf rows r, r + S, ... sit at the head of row r.
    if m >= p.n:
        # Leaf row r is the (alpha*N/N')-point subspectrum of x[r::N] == [x_r]:
        # one sample fanned out across m//n equal bins.
        rows[:, :height] = x.reshape(height, classes).T
        if not early:
            rows[...] = rows[:, :1]
    else:
        # Leaf row r is the 1-bin subspectrum of the block x[r::M]: its sum.
        np.sum(x.reshape(-1, height, classes), axis=0, out=rows.T)
        if counter is not None:
            counter.complex_adds += p.n - m
    work = _empty(max(span if early else 0, classes * width if late else 0))
    # Phase-1 level j merges rows of 2**j * (m // leaves) columns.
    tables = [np.ascontiguousarray(p.twiddles[:: leaves >> (j + 1)]) for j in range(early)]
    with np.errstate():
        np.setbufsize(_MIN_RUN)
        for r in range(classes):
            # One column of leaves: the first level's twiddles fan each one
            # out across its m // leaves equal bins.
            level = rows[r, :height, None]
            if early % 2:  # the first level writes row r, so the leaves move out
                level = work[:height, None]
                np.copyto(level, rows[r, :height, None])
            for j, twiddles in enumerate(tables):
                h, cols = height >> j, len(twiddles)
                flat = rows[r] if (early - j) % 2 else work[:span]
                if h > 2 * cols:
                    # Many short rows: store the output column by column, so
                    # that the operands run along the rows.
                    out = flat.reshape(2, cols, h // 2).transpose(2, 0, 1)
                    merged = flat.reshape(2 * cols, h // 2).T
                else:
                    out = flat.reshape(h // 2, 2, cols)
                    merged = flat.reshape(h // 2, 2 * cols)
                _butterfly(twiddles, level, out, counter)
                level = merged
        for c0 in range(0, span if late else 0, width):
            region = rows[:, c0:c0 + width]
            level = region
            if late % 2:  # the first level writes the region, so it moves out
                level = work[: classes * width].reshape(classes, width)
                np.copyto(level, region)
            for i in range(late):
                # Level i merges rows of 2**i chunks of ``width`` columns;
                # chunk t holds columns t * span + c0 onwards.
                flat = region if (late - i) % 2 else work[: classes * width].reshape(classes, width)
                twiddles = p.twiddles[:: classes >> (i + 1)].reshape(1 << i, span)[:, c0:c0 + width]
                _butterfly(twiddles, level.reshape(classes >> i, 1 << i, width),
                           flat.reshape(classes >> (i + 1), 2, 1 << i, width), counter)
                level = flat
    return bins


def alpha_fft(signal: Signal, p: Plan, counter: OpCounter | None = None) -> Spectrum:
    """Fast density-alpha transform of ``signal`` under a matching plan.

    Numerically equivalent to ``oracle.naive_forward`` (same unscaled bins)
    at a cost of predicted_mults(p) complex multiplies, which the optional
    ``counter`` verifies empirically.  The Spectrum takes over the bin array
    that ``transform_samples`` made and marks it read-only; the bins are
    never copied.
    """
    bins = transform_samples(signal.samples, p, counter)
    return Spectrum._adopt(bins, p.n, p.alpha, signal.duration)
