"""Discrete Fourier analysis with an adjustable frequency-bin density.

The classical N-point DFT places its bins 1/T apart.  Generalizing the
transform to a rational density factor alpha = p/q yields M = alpha*N bins
at spacing 1/(alpha*T): alpha > 1 interpolates the spectrum on a denser
grid (equivalently, the FFT of the zero-padded signal), alpha < 1 trades
resolution for work and aliases the signal in time.  When N and alpha*N
are both powers of two, a divide-and-conquer kernel over the rectangular
transform matrix evaluates the spectrum in (alpha*N/2)*log2(min(N, alpha*N))
complex multiplies -- (alpha*N/2)*log2(alpha) fewer than padding.
"""

from .core import (
    DenseFactor,
    IncompatibleAlphaError,
    Signal,
    Spectrum,
    TooManyBinsError,
    UnsupportedSizeError,
    bin_frequency,
    is_power_of_two,
    validate_pair,
)
from .oracle import naive_forward, naive_inverse, orthogonality_kernel
from .fastpath import (
    OpCounter,
    Plan,
    alpha_fft,
    plan,
    predicted_adds,
    predicted_mults,
    transform_samples,
)
from .baseline import aliased_reconstruct
from .bench import (
    BenchRecord,
    ClaimVerdict,
    ScalingReport,
    make_report,
    run_grid,
)
from .demo import analytic_sine_spectrum, max_curve_deviation, sine_demo, sine_signal

__version__ = "0.1.0"

__all__ = [
    "DenseFactor",
    "IncompatibleAlphaError",
    "Signal",
    "Spectrum",
    "TooManyBinsError",
    "UnsupportedSizeError",
    "bin_frequency",
    "is_power_of_two",
    "validate_pair",
    "naive_forward",
    "naive_inverse",
    "orthogonality_kernel",
    "OpCounter",
    "Plan",
    "alpha_fft",
    "plan",
    "predicted_adds",
    "predicted_mults",
    "transform_samples",
    "aliased_reconstruct",
    "BenchRecord",
    "ClaimVerdict",
    "ScalingReport",
    "make_report",
    "run_grid",
    "analytic_sine_spectrum",
    "max_curve_deviation",
    "sine_demo",
    "sine_signal",
    "__version__",
]
