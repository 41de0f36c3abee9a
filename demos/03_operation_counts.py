"""
Exact operation counts
======================

The fast path instruments every complex multiply and add, and its cost
has a closed form: (alpha*N/2) levels-of-log2(min(N, alpha*N)) twiddle
multiplies.  This script measures a grid of configurations, checks the
formula, and prices the two alternatives the counts beat:

* alpha > 1 versus zero-padding to the same bin grid, and
* alpha < 1 versus computing the full FFT and discarding bins.
"""

from alpha_spectra import (
    DenseFactor,
    OpCounter,
    Signal,
    alpha_fft,
    plan,
    predicted_mults,
    transform_samples,
)
from alpha_spectra.baseline import executor


def measured_mults(n, alpha):
    counter = OpCounter()
    transform_samples(Signal([1.0] * n).samples, plan(n, alpha), counter)
    return counter.complex_mults


def log2(n):
    return n.bit_length() - 1


ALPHAS = [DenseFactor(1, 4), DenseFactor(1, 2), DenseFactor(1),
          DenseFactor(2), DenseFactor(4)]
SIZES = [64, 256, 1024]

print("complex multiplies, measured == (alpha*N/2) * log2(min(N, alpha*N))")
header = "     N " + "".join(f"{'a=' + str(a):>12}" for a in ALPHAS)
print(header)
for n in SIZES:
    cells = []
    for alpha in ALPHAS:
        count = measured_mults(n, alpha)
        assert count == predicted_mults(plan(n, alpha))
        cells.append(f"{count:12d}")
    print(f"{n:6d}" + "".join(cells))

# Reading across a row: going denser costs more (each level is wider),
# going thinner costs less (fewer, narrower levels).  Reading down a
# column: N log N growth.

# --- alpha > 1: the padding tax -------------------------------------------
# baseline.executor's zeropad method (what `compute --method zeropad` runs)
# pads to alpha*N points and runs a plain FFT.  It produces the same bins
# (bit for bit; `alpha-spectra verify` checks them) but burns multiplies on
# known zeros.  The gap is exactly (alpha*N/2) * log2(alpha).
print("\nalpha > 1: multiplies saved versus zero-padding")
print("     N  alpha     dense    padded       gap   (alpha*N/2)*log2(alpha)")
for n in SIZES:
    for alpha in [DenseFactor(2), DenseFactor(8)]:
        signal = Signal([1.0] * n)
        dense, padded = OpCounter(), OpCounter()
        alpha_fft(signal, plan(n, alpha), dense)
        executor(n, alpha, "zeropad")[0](signal, padded)
        m = n * alpha.p
        gap = padded.complex_mults - dense.complex_mults
        formula = (m // 2) * log2(alpha.p)
        assert gap == formula
        print(f"{n:6d}  {str(alpha):>5}  {dense.complex_mults:8d}  "
              f"{padded.complex_mults:8d}  {gap:8d}   {formula:8d}")

# --- alpha < 1: the discard tax -------------------------------------------
# When only every (1/alpha)-th bin is wanted, computing all N and keeping
# a subset wastes (N/2)log2 N - (M/2)log2 M multiplies (M = alpha*N).
# That is more than the (N/2)log2(1/alpha) a per-level argument alone
# promises, because the kept spectrum is also narrower at every level.
print("\nalpha < 1: multiplies saved versus full-FFT-then-discard")
print("     N  alpha      thin      full       gap      floor (N/2)*log2(1/alpha)")
for n in SIZES:
    for alpha in [DenseFactor(1, 2), DenseFactor(1, 4)]:
        thin = measured_mults(n, alpha)
        full = measured_mults(n, DenseFactor(1))
        m = n // alpha.q
        gap = full - thin
        assert gap == (n // 2) * log2(n) - (m // 2) * log2(m)
        floor = (n // 2) * log2(alpha.q)
        print(f"{n:6d}  {str(alpha):>5}  {thin:8d}  {full:8d}  {gap:8d}   {floor:8d}")
