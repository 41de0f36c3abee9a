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

The library calls behind them, ``bench.run_grid``, ``verify.run_all`` and
``demo.sine_demo``, run over small grids of arguments: an unknown method, a
repeated N or alpha, ``reps`` below 1, a pair that every method refuses and
``sine_demo(1)``'s zero DC.  Each case raises the ValueError text that
``contract_rules`` gives, or skips or checks what the rules say.
"""

import itertools
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from alpha_spectra import DenseFactor, baseline, cli, verify
from alpha_spectra.bench import run_grid
from alpha_spectra.demo import sine_demo

from contract_rules import (
    EXCEPTIONS,
    METHODS,
    bench_outcome,
    demo_outcome,
    expected,
    expected_reps,
    given_twice,
    grid_cell,
    run_grid_refusals,
    sine_demo_refusal,
    verify_cases,
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
# range, a grid with no runnable cell (N = 3 at alpha 1/2), alpha < 1 cells
# below MIN_LT1_BINS (16 and 64 at alpha 1/4), integers that only int()
# reads (``1_6``, Arabic-Indic digits) and a signed, padded integer.

BENCH_NS = (",", "4,4", "0", "3", "16,64,128,256", "1_6")
BENCH_ALPHAS = (",", "1,1/1", "0", "1/2", "1/4,1,2", "\u0662")
BENCH_METHODS = ("fast", "fft,fft", "auto", "fft,zeropad")
VERIFY_SIZES = (",", "4,4", "0", "268435457", "3", "2,3,5", "6_4")
VERIFY_SEEDS = ("0", "-1", "\u0661")
DEMO_NS = ("0", "1", "3", "8", "268435457", "6_4", "\u0668", " +8 ")
DEMO_ALPHAS = (",", "1,1/1", "0", "1/2", "1,2", "100000000000", "1_0/5", "1/\u0662")


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


# ------------------------------------------------------------- library calls
# Arguments: an unknown method, a repeat (DenseFactor(2, 1) repeats 2, and a
# method named twice), reps below 1, pairs that every method refuses (N = 3
# at alpha 1/2), sizes at which a suite checks no case, a density that
# ``auto`` refuses, and N = 1, whose half-sine is zero.

GRID_NS = ((4, 16), (16, 16), (3,))
GRID_ALPHAS = ((DenseFactor(2), DenseFactor(1, 2)), (DenseFactor(2), DenseFactor(2, 1)))
GRID_METHODS = (("auto", "fft", "zeropad"), ("naive", "fast"), ("zeropad", "naive", "naive"))
GRID_REPS = (1, 0)
RUN_ALL_SIZES = ((2, 4), (4, 4), (3,), (1, 6, 128))
SINE_DEMO_CALLS = (
    (8, (1, 2, DenseFactor(3, 2))),
    (8, (2, DenseFactor(2, 1))),
    (6, (1, DenseFactor(1, 4))),
    (1, (1, 2)),
    (1, (DenseFactor(1, 4), 1)),
)


def refusal(n, alpha, method):
    """The text of ``executor``'s refusal of ``method`` at (N, alpha), raised as the rules say."""
    with pytest.raises(EXCEPTIONS[expected(n, alpha, method)[0]]) as info:
        baseline.executor(n, alpha, method)
    return str(info.value)


@pytest.mark.parametrize("reps", GRID_REPS)
@pytest.mark.parametrize("methods", GRID_METHODS)
@pytest.mark.parametrize("alphas", GRID_ALPHAS)
@pytest.mark.parametrize("ns", GRID_NS)
def test_run_grid_contract(ns, alphas, methods, reps):
    skipped = []
    refusals = run_grid_refusals(ns, alphas, methods, reps)
    if refusals:
        with pytest.raises(ValueError) as info:
            run_grid(ns, alphas, methods, reps=reps, skipped=skipped)
        assert str(info.value) in refusals and skipped == []
        return
    records = run_grid(ns, alphas, methods, reps=reps, skipped=skipped)
    want_records, want_skips = [], []
    for n in ns:
        for alpha in alphas:
            labels, skips = grid_cell(n, alpha, methods)
            want_records += [(n, alpha, label, expected_reps(label, reps)) for label in labels]
            want_skips += [(n, alpha, method, reason or refusal(n, alpha, method))
                           for method, reason in skips]
    assert [(r.n, r.alpha, r.method, r.repetitions) for r in records] == want_records
    assert [(s["N"], DenseFactor(s["alpha_p"], s["alpha_q"]), s["method"], s["reason"])
            for s in skipped] == want_skips


@pytest.mark.parametrize("sizes", RUN_ALL_SIZES)
def test_run_all_contract(sizes):
    repeat = given_twice("N", sizes)
    if repeat:
        with pytest.raises(ValueError) as info:
            verify.run_all(sizes=sizes)
        assert str(info.value) == repeat
        return
    results = verify.run_all(sizes=sizes)
    assert {r.name: r.cases for r in results} == verify_cases(sizes)
    assert all(r.passed for r in results)


@pytest.mark.parametrize("n, alphas", SINE_DEMO_CALLS)
def test_sine_demo_contract(n, alphas):
    refused = sine_demo_refusal(n, alphas)
    if refused:
        kind, text = refused
        with pytest.raises(kind) as info:
            sine_demo(n, alphas)
        assert type(info.value) is kind
        assert str(info.value) == (text if isinstance(text, str) else refusal(n, text, "auto"))
        return
    curves = sine_demo(n, alphas)
    densities = [a if isinstance(a, DenseFactor) else DenseFactor(a) for a in alphas]
    assert list(curves) == densities
    assert [curve.spectrum.m for curve in curves.values()] == [n * a.p // a.q for a in densities]


def test_the_library_grids_reach_every_outcome():
    calls = list(itertools.product(GRID_NS, GRID_ALPHAS, GRID_METHODS, GRID_REPS))
    refusals = [run_grid_refusals(*call) for call in calls]
    assert {text.split()[0] for texts in refusals for text in texts} == {
        "unknown", "N", "alpha", "reps"}
    cells = [grid_cell(n, alpha, methods) for (ns, alphas, methods, _), texts
             in zip(calls, refusals) if not texts for n in ns for alpha in alphas]
    assert [] in (labels for labels, _ in cells)  # a pair that every method refuses
    reasons = [reason for _, skips in cells for _, reason in skips]
    assert None in reasons and any(reasons)  # a refused method and a label timed twice
    assert any(0 in verify_cases(sizes).values() for sizes in RUN_ALL_SIZES
               if not given_twice("N", sizes))
    demo = [sine_demo_refusal(*call) for call in SINE_DEMO_CALLS]
    assert None in demo
    assert [type(text) for _, text in filter(None, demo)] == [str, DenseFactor, str, DenseFactor]
