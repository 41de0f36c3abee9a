"""The command line's contract on fixed grids, run in process through ``cli.main``.

Every N in NS, alpha in ALPHAS and method: ``compute``'s exit code follows
from the rules in ``contract_rules.expected`` alone, written there rather
than read from the executor, so a change to what a method accepts shows as
a failing cell.  A run that succeeds writes numpy's FFT of the samples
padded or folded into alpha*N slots, labelled with the method that ran; a
run that fails prints one ``error:`` line, nothing on stdout, and writes no
file.

``bench``, ``verify`` and ``demo-sine`` run over small grids of flag texts:
empty, repeated and out-of-range lists, grids with no runnable cell, and
alpha < 1 cells below ``bench.MIN_LT1_BINS``.  Each case gives the exit code
that ``contract_rules`` derives, and one ``error:`` line when refused, or a
``warning:`` line where the rules expect one.  A refused request leaves no
file or directory.
"""

import itertools
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from alpha_spectra import cli

from contract_rules import (
    METHODS,
    bench_outcome,
    demo_outcome,
    expected,
    verify_outcome,
)
from file_formats import read_spectrum_csv, write_signal_csv

NS = (1, 6, 12, 64, 4096)
ALPHAS = ("1/8", "1/4", "1/3", "1/2", "2/3", "1", "4/3", "3/2", "2", "3", "4", "8")
RTOL = 1e-10


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


# ------------------------------------------------------ bench, verify, demo-sine
# Flag texts: an empty list, a repeat (as read: 1/1 repeats 1), values out of
# range, a grid with no runnable cell (N = 3 at alpha 1/2), and alpha < 1
# cells below MIN_LT1_BINS (16 and 64 at alpha 1/4).

BENCH_NS = (",", "4,4", "0", "3", "16,64,128,256")
BENCH_ALPHAS = (",", "1,1/1", "0", "1/2", "1/4,1,2")
BENCH_METHODS = ("fast", "fft,fft", "auto", "fft,zeropad")
VERIFY_SIZES = (",", "4,4", "0", "268435457", "3", "2,3,5")
VERIFY_SEEDS = ("0", "-1")
DEMO_NS = ("0", "1", "3", "8", "268435457")
DEMO_ALPHAS = (",", "1,1/1", "0", "1/2", "1,2", "100000000000")


def outcome(argv, capsys):
    """(exit code, stdout, stderr) of ``argv``; argparse's refusal exits 2."""
    try:
        code = cli.main(argv)
    except SystemExit as exit_:
        code = exit_.code
    return (code, *capsys.readouterr())


def assert_outcome(argv, want, kind, tmp_path, capsys):
    code, stdout, stderr = outcome(argv, capsys)
    assert code == want
    lines = (stdout + stderr).splitlines()
    errors = [line for line in lines if "error:" in line]
    warnings = [line for line in lines if "warning:" in line]
    if want == cli.EXIT_OK:
        assert stderr == "" and errors == []
        assert bool(warnings) == (kind == "warning")
        return
    assert kind == "error"
    assert stdout == "" and len(errors) == 1 and warnings == []
    assert stderr.endswith(errors[0] + "\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("methods", BENCH_METHODS)
@pytest.mark.parametrize("grid_alpha", BENCH_ALPHAS)
@pytest.mark.parametrize("grid_n", BENCH_NS)
def test_bench_contract(tmp_path, capsys, grid_n, grid_alpha, methods):
    want, kind = bench_outcome(grid_n, grid_alpha, methods)
    argv = ["bench", "--grid-n", grid_n, "--grid-alpha", grid_alpha, "--methods", methods,
            "--reps", "1", "--output", str(tmp_path / "r.json"), "--csv", str(tmp_path / "r.csv")]
    assert_outcome(argv, want, kind, tmp_path, capsys)


@pytest.mark.parametrize("blocked", ["--output", "--csv"])
def test_bench_contract_with_an_unwritable_output(tmp_path, capsys, blocked):
    # The grid runs and the other file is writable, but neither file is left behind.
    assert bench_outcome("4", "1", "naive")[0] == cli.EXIT_OK
    paths = {"--output": tmp_path / "ok.json", "--csv": tmp_path / "ok.csv"}
    paths[blocked] = tmp_path / "nodir" / "r"
    argv = ["bench", "--grid-n", "4", "--grid-alpha", "1", "--methods", "naive", "--reps", "1",
            *(arg for flag, path in paths.items() for arg in (flag, str(path)))]
    assert_outcome(argv, cli.EXIT_PARSE_ERROR, "error", tmp_path, capsys)


@pytest.mark.parametrize("seed", VERIFY_SEEDS)
@pytest.mark.parametrize("sizes", VERIFY_SIZES)
def test_verify_contract(tmp_path, capsys, sizes, seed):
    want, kind = verify_outcome(sizes, seed)
    assert_outcome(["verify", "--sizes", sizes, "--seed", seed], want, kind, tmp_path, capsys)


@pytest.mark.parametrize("alphas", DEMO_ALPHAS)
@pytest.mark.parametrize("n", DEMO_NS)
def test_demo_sine_contract(tmp_path, capsys, n, alphas):
    want, kind = demo_outcome(n, alphas)
    argv = ["demo-sine", "--n", n, "--alphas", alphas, "--output", str(tmp_path / "demo")]
    assert_outcome(argv, want, kind, tmp_path, capsys)
    if want == cli.EXIT_OK:
        assert len(list((tmp_path / "demo").iterdir())) == len(alphas.split(",")) + 1


def test_the_command_grids_reach_every_outcome():
    bench = Counter(bench_outcome(*flags)
                    for flags in itertools.product(BENCH_NS, BENCH_ALPHAS, BENCH_METHODS))
    assert set(bench) == {(cli.EXIT_PARSE_ERROR, "error"), (cli.EXIT_OK, "warning"),
                          (cli.EXIT_OK, None)}
    verify = Counter(verify_outcome(*flags) for flags in itertools.product(VERIFY_SIZES,
                                                                           VERIFY_SEEDS))
    assert set(verify) == {(cli.EXIT_PARSE_ERROR, "error"), (cli.EXIT_OK, None)}
    demo = Counter(demo_outcome(*flags) for flags in itertools.product(DEMO_NS, DEMO_ALPHAS))
    assert {code for code, _ in demo} == {cli.EXIT_OK, cli.EXIT_PARSE_ERROR, cli.EXIT_BAD_ALPHA,
                                          cli.EXIT_NOT_REPRESENTABLE}
