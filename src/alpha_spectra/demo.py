"""Half-sine demonstration: dense spectra against the analytic transform.

The classic picket-fence example: x_n = sin(pi*n/N) over one second puts
all of its spectral shape between the integer-frequency bins of the
ordinary DFT -- the peak sits at 0.5 Hz, squarely mid-bin.  Raising the
bin density fills in the curve without touching the signal.  Each discrete
curve is normalized by its own zero-frequency magnitude and the continuous
reference by its zero-frequency value 2/pi, which puts every curve on a
shared [0, 1]-ish scale.
"""

from dataclasses import dataclass

import numpy as np

from .baseline import executor
from .core import DenseFactor, Signal, Spectrum

#: Normalizer of the analytic curve: its value at zero frequency.
SINE_DC = 2.0 / np.pi


def analytic_sine_spectrum(nu):
    """Continuous-time transform of sin(pi*t) on (0, 1) at frequency ``nu`` Hz.

    Closed form (1 + exp(-2j*pi*nu)) / (pi*(1 - 4*nu**2)), written via sinc
    so the removable points nu = +/-1/2 evaluate cleanly: the value there is
    -+ i/2.  At nu = 0 it equals 2/pi.  Scalar in, scalar out; arrays
    vectorize elementwise.
    """
    nu = np.asarray(nu, dtype=float)
    magnitude_arg = np.abs(nu)
    value = 0.5 * np.exp(-1j * np.pi * nu) * np.sinc(0.5 - magnitude_arg) / (0.5 + magnitude_arg)
    if value.ndim == 0:
        return complex(value)
    return value


def sine_signal(n: int = 64) -> Signal:
    """x_k = sin(pi * k / N): one half-period across a one-second record."""
    return Signal(np.sin(np.pi * np.arange(n) / n))


@dataclass(frozen=True, eq=False)
class DemoCurve:
    """One demo spectrum and its magnitudes scaled to 1 at zero frequency."""

    spectrum: Spectrum
    normalized: np.ndarray  # spectrum.magnitudes / spectrum.magnitudes[0]


def sine_demo(n: int = 64, alphas=(1, 2, 4, 8)) -> dict:
    """Half-sine spectra for each density factor, keyed by DenseFactor.

    Runs ``executor``'s ``auto`` method, so rational densities work too.
    """
    signal = sine_signal(n)
    curves = {}
    for raw in alphas:
        alpha = raw if isinstance(raw, DenseFactor) else DenseFactor(raw)
        spectrum = executor(n, alpha)[0](signal)
        magnitudes = spectrum.magnitudes
        if magnitudes[0] == 0:
            raise ValueError("cannot normalize a spectrum with zero DC magnitude")
        curves[alpha] = DemoCurve(spectrum, magnitudes / magnitudes[0])
    return curves


def analytic_normalized(nu) -> np.ndarray:
    """|analytic_sine_spectrum| / (2/pi) -- the reference for normalized curves."""
    return np.abs(analytic_sine_spectrum(nu)) / SINE_DC


def max_curve_deviation(curve: DemoCurve) -> float:
    """Worst gap between a demo curve and the analytic reference over [0, 4] Hz.

    The discrete points are read as a curve the way a plot draws them --
    linear interpolation between neighboring bins -- and compared with the
    continuous reference on a grid of 1/256 Hz.  A coarse bin grid that
    jumps across spectral features (the alpha = 1 picket fence) shows up as
    a large deviation; denser grids track the reference closely.
    """
    grid = np.arange(0.0, 4.0 + 0.5 / 256.0, 1.0 / 256.0)
    frequencies = curve.spectrum.frequencies
    if grid[-1] > frequencies[-1]:
        raise ValueError(f"curve ends at {frequencies[-1]:g} Hz, cannot compare up to 4 Hz")
    interpolated = np.interp(grid, frequencies, curve.normalized)
    return float(np.max(np.abs(interpolated - analytic_normalized(grid))))
