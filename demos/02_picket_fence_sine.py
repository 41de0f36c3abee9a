"""
The picket fence, and how density fixes it
==========================================

x_n = sin(pi*n/N) over one second concentrates its spectrum around
0.5 Hz -- exactly halfway between the integer-frequency bins that the
ordinary N-point transform samples.  Viewed through that fence the peak
is attenuated and the shape is wrong.  Raising the bin density alpha
moves the fence posts closer together until the curve emerges.

Run this script to see the deviation from the analytic spectrum shrink
as alpha doubles, plus a crude terminal plot of the curves themselves.
"""

import numpy as np

from alpha_spectra import (
    DenseFactor,
    analytic_sine_spectrum,
    max_curve_deviation,
    sine_demo,
)
from alpha_spectra.demo import SINE_DC, analytic_normalized

N = 64
curves = sine_demo(N, alphas=(1, 2, 4, 8))

print(f"half-sine signal, N = {N}, T = 1 s")
print(f"analytic spectrum at DC: {SINE_DC:.6f}; at the 0.5 Hz peak: "
      f"{abs(analytic_sine_spectrum(0.5)):.6f}\n")

# How badly does each discrete curve miss the analytic one?  The metric
# reads the bins as a plotted curve (linear interpolation) and takes the
# worst gap against the continuous reference over 0..4 Hz.
print("alpha   bins   bin spacing   max deviation from analytic")
for alpha, curve in curves.items():
    deviation = max_curve_deviation(curve)
    frequencies = curve.spectrum.frequencies
    spacing = frequencies[1] - frequencies[0]
    print(f"{str(alpha):>5}   {curve.spectrum.m:4d}   {spacing:8.4f} Hz"
          f"   {deviation:.6f}")

# alpha = 1 misses the mid-bin peak entirely; by alpha = 8 the curve
# hugs the reference.  Note the alpha = 1 deviation is ~0.20 of the
# (normalized) peak height -- a fifth of the picture simply absent.

# A terminal sketch of the normalized magnitudes over 0..3 Hz.  Dots are
# the analytic curve, digits mark each discrete curve's interpolated
# height (1 and 8 for alpha = 1 and alpha = 8).
grid = np.linspace(0.0, 3.0, 61)
reference = analytic_normalized(grid)
rows = 16
print("\nnormalized magnitude, 0..3 Hz  ('.' analytic, '1' alpha=1, '8' alpha=8)")
sketch = [[" "] * grid.size for _ in range(rows)]
for label, values in [
    (".", reference),
    ("1", np.interp(grid, curves[DenseFactor(1)].spectrum.frequencies,
                    curves[DenseFactor(1)].normalized)),
    ("8", np.interp(grid, curves[DenseFactor(8)].spectrum.frequencies,
                    curves[DenseFactor(8)].normalized)),
]:
    for column, value in enumerate(values):
        row = rows - 1 - int(round(value * (rows - 1)))
        sketch[row][column] = label
for row in sketch:
    print("".join(row))
print("^0 Hz" + " " * (grid.size - 10) + "3 Hz^")

# The dense grid is a superset of the coarse one: every 8th bin of the
# alpha = 8 spectrum lands on an alpha = 1 frequency, with the same value.
shared = np.abs(curves[DenseFactor(8)].spectrum.bins[::8]
                - curves[DenseFactor(1)].spectrum.bins)
print(f"\nalpha=8 bins over the alpha=1 grid: max |difference| = {shared.max():.1e}")
