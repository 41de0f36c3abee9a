"""The ``compute`` contract on a fixed grid, run in process through ``cli.main``.

Every N in NS, alpha in ALPHAS and method: the exit code follows from the
rules in ``expected`` alone, written here rather than read from the
executor, so a change to what a method accepts shows as a failing cell.
A run that succeeds writes numpy's FFT of the samples padded or folded into
alpha*N slots, labelled with the method that ran; a run that fails prints
one ``error:`` line, nothing on stdout, and writes no file.
"""

from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from alpha_spectra import cli

from file_formats import read_spectrum_csv, write_signal_csv

NS = (1, 6, 12, 64, 4096)
ALPHAS = ("1/8", "1/4", "1/3", "1/2", "2/3", "1", "4/3", "3/2", "2", "3", "4", "8")
METHODS = ("auto", "fft", "naive", "zeropad")
RTOL = 1e-10


def power_of_two(value):
    return value.denominator == 1 and value >= 1 and (value.numerator & (value.numerator - 1)) == 0


def expected(n, alpha, method):
    """(exit code, method label) that ``compute`` gives at (N, alpha) with ``method``."""
    alpha = Fraction(alpha)
    m = alpha * n
    if method == "zeropad" and alpha < 1:
        return cli.EXIT_BAD_ALPHA, None  # refused before the pair is checked
    if m.denominator != 1:
        return cli.EXIT_BAD_ALPHA, None
    fast = power_of_two(Fraction(n)) and power_of_two(m)
    if method == "fft" and not fast:
        return cli.EXIT_BAD_SIZE, None
    if method == "zeropad" and not power_of_two(m):
        return cli.EXIT_BAD_SIZE, None
    if method == "auto":
        return cli.EXIT_OK, "fft" if fast else "naive"
    return cli.EXIT_OK, method


def test_the_grid_reaches_every_outcome():
    codes = Counter(expected(n, alpha, method)[0]
                    for n in NS for alpha in ALPHAS for method in METHODS)
    assert codes == {cli.EXIT_OK: 120, cli.EXIT_BAD_ALPHA: 77, cli.EXIT_BAD_SIZE: 43}


@pytest.fixture(scope="module")
def signals(tmp_path_factory):
    """N -> (path of an ``index,re,im`` CSV of N samples, the samples)."""
    rng = np.random.default_rng(2024)
    files = {}
    for n in NS:
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        path = tmp_path_factory.mktemp("signals") / f"signal_{n}.csv"
        write_signal_csv(path, x)
        files[n] = path, x
    return files


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("n", NS)
def test_compute_contract(signals, tmp_path, capsys, n, alpha, method):
    source, x = signals[n]
    out = tmp_path / "spectrum.csv"
    code = cli.main(["compute", "--input", str(source), "--output", str(out),
                     "--alpha", alpha, "--method", method])
    stdout, stderr = capsys.readouterr()
    want, label = expected(n, alpha, method)
    assert code == want
    if want != cli.EXIT_OK:
        assert stdout == "" and stderr.startswith("error: ")
        assert stderr.count("\n") == 1 and stderr.endswith("\n")
        assert not out.exists()
        return
    assert stderr == ""
    spectrum, written = read_spectrum_csv(out)
    assert written == label
    m = int(Fraction(alpha) * n)
    slots = np.zeros(m, dtype=np.complex128)
    np.add.at(slots, np.arange(n) % m, x)  # padded when m >= N, folded when m < N
    reference = np.fft.fft(slots)
    assert spectrum.m == m
    assert np.max(np.abs(spectrum.bins - reference)) <= RTOL * np.max(np.abs(reference))
