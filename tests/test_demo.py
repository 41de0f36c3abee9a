import numpy as np
import pytest

from alpha_spectra import (
    DenseFactor,
    analytic_sine_spectrum,
    max_curve_deviation,
    sine_demo,
    sine_signal,
)
from alpha_spectra.demo import SINE_DC, analytic_normalized

scipy_integrate = pytest.importorskip("scipy.integrate")


# ------------------------------------------------------------ analytic curve

@pytest.mark.parametrize("nu", [0.0, 0.25, 0.5, 1.0, 1.5, 2.7, 4.0])
def test_analytic_spectrum_matches_quadrature(nu):
    # Independent check: numerically integrate sin(pi t) e^{-2 pi i nu t}.
    real, _ = scipy_integrate.quad(lambda t: np.sin(np.pi * t) * np.cos(2 * np.pi * nu * t), 0, 1)
    imag, _ = scipy_integrate.quad(lambda t: -np.sin(np.pi * t) * np.sin(2 * np.pi * nu * t), 0, 1)
    assert abs(analytic_sine_spectrum(nu) - complex(real, imag)) < 1e-10


def test_analytic_spectrum_special_points():
    assert analytic_sine_spectrum(0.0) == pytest.approx(2 / np.pi)
    assert analytic_sine_spectrum(0.5) == pytest.approx(-0.5j)
    assert analytic_sine_spectrum(-0.5) == pytest.approx(0.5j)
    assert SINE_DC == 2 / np.pi


def test_analytic_spectrum_conjugate_symmetry():
    nu = np.linspace(0.0, 6.0, 97)
    values = analytic_sine_spectrum(nu)
    mirrored = analytic_sine_spectrum(-nu)
    assert np.max(np.abs(mirrored - np.conj(values))) < 1e-15


def test_analytic_spectrum_scalar_and_array_forms():
    scalar = analytic_sine_spectrum(0.3)
    assert isinstance(scalar, complex)
    array = analytic_sine_spectrum(np.array([0.3, 0.7]))
    assert array.shape == (2,)
    assert array[0] == scalar


# ------------------------------------------------------------------- signal

def test_sine_signal_samples():
    signal = sine_signal(8)
    expected = np.sin(np.pi * np.arange(8) / 8)
    np.testing.assert_allclose(signal.samples.real, expected, atol=1e-15)
    assert np.all(signal.samples.imag == 0)
    assert signal.samples[0] == 0
    assert len(sine_signal()) == 64


# -------------------------------------------------------------------- curves

@pytest.fixture(scope="module")
def curves():
    return sine_demo()


def test_demo_returns_requested_densities(curves):
    assert list(curves) == [DenseFactor(1), DenseFactor(2), DenseFactor(4), DenseFactor(8)]
    for alpha, curve in curves.items():
        assert curve.spectrum.alpha == alpha
        assert curve.spectrum.m == 64 * alpha.p
        assert curve.normalized[0] == 1.0
    # 2 and 2/1 are one density, which would give one curve for two.
    with pytest.raises(ValueError, match="alpha 2/1 given twice"):
        sine_demo(8, (2, DenseFactor(2, 1)))
    # sin(0) is the one sample of N = 1: no DC to scale the curve by.
    with pytest.raises(ValueError, match="zero DC magnitude"):
        sine_demo(1)


def test_curve_magnitudes_are_the_spectrum_magnitudes(curves):
    # The curve scales the one bin magnitude, np.hypot, as in the spectrum
    # CSV; np.abs of a complex array differs from it in the last digit for
    # some bins.
    for curve in [*curves.values(), *sine_demo(6, (DenseFactor(3, 2),)).values()]:
        bins = curve.spectrum.bins
        magnitudes = np.hypot(bins.real, bins.imag)
        assert curve.spectrum.magnitudes.tobytes() == magnitudes.tobytes()
        assert curve.normalized.tobytes() == (magnitudes / magnitudes[0]).tobytes()


def test_denser_grids_share_the_coarse_bins(curves):
    # Every 8th bin of the alpha = 8 curve is an alpha = 1 bin: same angle
    # set, same arithmetic, so the values agree to the last bit for real
    # purposes (pinned at 1e-12).
    dense = curves[DenseFactor(8)].spectrum.bins[::8]
    coarse = curves[DenseFactor(1)].spectrum.bins
    assert np.max(np.abs(dense - coarse)) <= 1e-12


def test_deviation_shrinks_with_density(curves):
    devs = [max_curve_deviation(curves[DenseFactor(a)]) for a in (1, 2, 4, 8)]
    assert devs == sorted(devs, reverse=True)
    assert devs[0] == pytest.approx(0.200241, abs=1e-6)
    assert devs[3] == pytest.approx(0.003611, abs=1e-6)
    assert devs[3] < 0.1 * devs[0]


def test_deviation_rejects_out_of_range_grid():
    # N = 2 at alpha = 1 has bins at 0 and 1 Hz, short of the 4 Hz grid.
    (curve,) = sine_demo(2, (1,)).values()
    with pytest.raises(ValueError, match="curve ends at 1 Hz"):
        max_curve_deviation(curve)


def test_rational_density_falls_back_to_naive():
    curves = sine_demo(n=6, alphas=(DenseFactor(3, 2),))
    curve = curves[DenseFactor(3, 2)]
    assert curve.spectrum.m == 9
    assert curve.normalized[0] == 1.0


def test_normalized_reference_at_zero():
    assert analytic_normalized(0.0) == 1.0
    assert analytic_normalized(np.array([0.5]))[0] == pytest.approx(0.5 / SINE_DC)
