import argparse
import ast
import csv
import dataclasses
import errno
import itertools
import json
import os
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import orjson
import pytest

from alpha_spectra import (
    DenseFactor,
    IncompatibleAlphaError,
    Signal,
    Spectrum,
    cli,
    demo,
    fastpath,
    run_grid,
    verify,
)
from alpha_spectra.baseline import METHODS, executor
from alpha_spectra.io import WRITE_BLOCK_ROWS

from contract_rules import bench_cell, expected, reference_bins
from file_formats import read_spectrum_csv, write_signal_csv


@pytest.fixture
def signal_file(tmp_path):
    rng = np.random.default_rng(11)
    path = tmp_path / "signal.csv"
    write_signal_csv(path, rng.normal(size=8) + 1j * rng.normal(size=8))
    return path


def run(argv):
    return cli.main(argv)


# ------------------------------------------------------------------- compute

def test_compute_fft_and_naive_agree(signal_file, tmp_path):
    fft_out = tmp_path / "fft.csv"
    naive_out = tmp_path / "naive.csv"
    assert run(["compute", "--input", str(signal_file), "--output", str(fft_out),
                "--alpha", "2", "--method", "fft"]) == cli.EXIT_OK
    assert run(["compute", "--input", str(signal_file), "--output", str(naive_out),
                "--alpha", "2", "--method", "naive"]) == cli.EXIT_OK
    fast, fast_method = read_spectrum_csv(fft_out)
    slow, slow_method = read_spectrum_csv(naive_out)
    assert (fast_method, slow_method) == ("fft", "naive")
    assert fast.alpha == slow.alpha == DenseFactor(2)
    assert np.max(np.abs(fast.bins - slow.bins)) < 1e-10


def test_compute_zeropad_labels_alpha(signal_file, tmp_path):
    out = tmp_path / "pad.csv"
    assert run(["compute", "--input", str(signal_file), "--output", str(out),
                "--alpha", "4", "--method", "zeropad"]) == cli.EXIT_OK
    spectrum, method = read_spectrum_csv(out)
    assert method == "zeropad"
    assert spectrum.origin_n == 8          # original length, not the padded one
    assert spectrum.alpha == DenseFactor(4)
    assert len(spectrum.bins) == 32


def test_compute_auto_falls_back_to_naive(tmp_path):
    path = tmp_path / "four.csv"
    write_signal_csv(path, [1.0, 2.0, 3.0, 4.0])
    out = tmp_path / "out.csv"
    assert run(["compute", "--input", str(path), "--output", str(out),
                "--alpha", "3/2"]) == cli.EXIT_OK
    spectrum, method = read_spectrum_csv(out)
    assert method == expected(4, "3/2", "auto")[1]  # M = 6 keeps the fast kernel out
    # Every cell reads back as its double, so the file holds that method's bins exactly.
    reference = reference_bins(method, Signal([1.0, 2.0, 3.0, 4.0]), "3/2")
    assert spectrum.bins.tobytes() == reference.tobytes()


def test_compute_file_across_write_blocks_reads_back_bitwise(tmp_path):
    # The benchmark's output check at M = 16384 bins, four write blocks: the
    # parsed bins are the method's, and freq and magnitude the Spectrum's.
    rng = np.random.default_rng(5)
    samples = rng.normal(size=4096) + 1j * rng.normal(size=4096)
    path, out = tmp_path / "s.csv", tmp_path / "out.csv"
    write_signal_csv(path, samples)
    assert run(["compute", "--input", str(path), "--output", str(out),
                "--alpha", "4"]) == cli.EXIT_OK
    spectrum, method = read_spectrum_csv(out)
    assert spectrum.m > 2 * WRITE_BLOCK_ROWS
    assert method == expected(4096, "4", "auto")[1]
    assert spectrum.bins.tobytes() == reference_bins(method, Signal(samples), "4").tobytes()
    table = np.loadtxt(out, delimiter=",", skiprows=5)
    assert table[:, 1].tobytes() == spectrum.frequencies.tobytes()
    assert table[:, 4].tobytes() == spectrum.magnitudes.tobytes()


def test_compute_duration_override(signal_file, tmp_path):
    out = tmp_path / "out.csv"
    assert run(["compute", "--input", str(signal_file), "--output", str(out),
                "--duration", "2.0"]) == cli.EXIT_OK
    spectrum, _ = read_spectrum_csv(out)
    assert spectrum.duration == 2.0
    assert spectrum.frequencies[1] == 0.5


def test_compute_missing_file(tmp_path, capsys):
    # A missing input reads as any path that cannot be opened.
    absent = tmp_path / "absent.csv"
    code = run(["compute", "--input", str(absent), "--output", str(tmp_path / "out.csv")])
    assert code == cli.EXIT_PARSE_ERROR
    assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{absent}'\n"


def test_compute_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("index,re,im\n0,one,0\n")
    code = run(["compute", "--input", str(bad), "--output", str(tmp_path / "out.csv")])
    assert code == cli.EXIT_PARSE_ERROR
    assert "line 2" in capsys.readouterr().err


def test_compute_incompatible_alpha(signal_file, tmp_path, capsys):
    code = run(["compute", "--input", str(signal_file),
                "--output", str(tmp_path / "out.csv"), "--alpha", "1/3"])
    assert code == cli.EXIT_BAD_ALPHA
    assert "8" in capsys.readouterr().err


def test_compute_fft_rejects_awkward_sizes(tmp_path, capsys):
    path = tmp_path / "twelve.csv"
    write_signal_csv(path, np.ones(12))
    code = run(["compute", "--input", str(path), "--output", str(tmp_path / "out.csv"),
                "--method", "fft"])
    assert code == cli.EXIT_BAD_SIZE
    assert "--method naive" in capsys.readouterr().err


@pytest.mark.parametrize("n, alpha, m", [(12, "3", 36), (16, "3/2", 24)])
def test_compute_zeropad_names_the_input_length(tmp_path, capsys, n, alpha, m):
    path = tmp_path / "signal.csv"
    write_signal_csv(path, np.ones(n))
    code = run(["compute", "--input", str(path), "--output", str(tmp_path / "out.csv"),
                "--alpha", alpha, "--method", "zeropad"])
    assert code == cli.EXIT_BAD_SIZE
    assert f"got N={n}, alpha*N={m};" in single_error_line(capsys.readouterr().err)


def test_compute_zeropad_rejects_thinning(signal_file, tmp_path, capsys):
    code = run(["compute", "--input", str(signal_file),
                "--output", str(tmp_path / "out.csv"),
                "--alpha", "1/2", "--method", "zeropad"])
    assert code == cli.EXIT_BAD_ALPHA
    assert "alpha >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("n, alpha", [(8, "1/2"), (64, "1/3"), (1, "1/8")])
def test_padding_refuses_thinning_before_checking_the_pair(tmp_path, capsys, n, alpha):
    # alpha*N need not be an integer here: alpha < 1 is the first refusal everywhere.
    text = f"zero-padding needs alpha >= 1, got {alpha}"
    density = DenseFactor.from_string(alpha)
    with pytest.raises(IncompatibleAlphaError) as info:
        executor(n, density, "zeropad")
    assert str(info.value) == text
    skipped = []
    run_grid([n], [density], methods=("zeropad",), reps=1, skipped=skipped)
    assert [cell["reason"] for cell in skipped] == [text]
    path = tmp_path / "signal.csv"
    write_signal_csv(path, np.ones(n))
    code = run(["compute", "--input", str(path), "--output", str(tmp_path / "out.csv"),
                "--alpha", alpha, "--method", "zeropad"])
    assert code == cli.EXIT_BAD_ALPHA
    assert capsys.readouterr().err == f"error: {text}\n"


def test_compute_zeropad_keeps_a_huge_duration(tmp_path):
    # The padded signal would last alpha*T = 8e308 s, which is not a finite
    # duration; the spectrum keeps T = 1e308 and its finite frequencies.
    path, out, expected = tmp_path / "signal.csv", tmp_path / "out.csv", tmp_path / "expected.csv"
    x = np.array([1.0, 2.0, 3.0, 4.0])
    write_signal_csv(path, x, duration=1e308)
    assert run(["compute", "--input", str(path), "--output", str(out),
                "--alpha", "8", "--method", "zeropad"]) == cli.EXIT_OK
    bins = executor(32, DenseFactor(1), "fft")[0](Signal(np.concatenate([x, np.zeros(28)]))).bins
    cli.io.write_spectrum(Spectrum(bins, 4, DenseFactor(8), 1e308), expected, "zeropad")
    assert out.read_bytes() == expected.read_bytes()


def test_bad_alpha_string_is_a_usage_error(signal_file, tmp_path):
    with pytest.raises(SystemExit) as info:
        run(["compute", "--input", str(signal_file),
             "--output", str(tmp_path / "out.csv"), "--alpha", "fast"])
    assert info.value.code == 2


@pytest.mark.parametrize("alpha", ["1_0/5", "\u0662", "4/\u0662"])
def test_an_alpha_that_only_int_reads_is_a_usage_error(signal_file, tmp_path, capsys, alpha):
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as info:
        run(["compute", "--input", str(signal_file), "--output", str(out), "--alpha", alpha])
    assert info.value.code == cli.EXIT_PARSE_ERROR
    assert single_error_line(capsys.readouterr().err) == (
        f"alpha-spectra compute: error: argument --alpha: "
        f"cannot parse density factor from {alpha!r}")
    assert not out.exists()


# ----------------------------------------------------------------- demo-sine

def test_demo_sine_writes_curves(tmp_path, capsys):
    out = tmp_path / "demo"
    assert run(["demo-sine", "--n", "16", "--alphas", "1,2",
                "--output", str(out)]) == cli.EXIT_OK
    names = sorted(p.name for p in out.iterdir())
    assert names == ["sine_alpha_1_1.csv", "sine_alpha_2_1.csv", "sine_analytic.csv"]
    lines = (out / "sine_alpha_2_1.csv").read_text().splitlines()
    assert lines[:3] == ["# demo=sine", "# N=16", "# alpha=2/1"]
    assert lines[4] == "freq,magnitude,normalized"
    assert len(lines) == 5 + 32
    first = lines[5].split(",")
    assert float(first[0]) == 0.0 and float(first[2]) == 1.0


def test_demo_sine_files_read_back_bitwise(tmp_path, capsys):
    # alpha = 4 at N = 2048 is 8192 rows, two full write blocks.
    out = tmp_path / "demo"
    assert run(["demo-sine", "--n", "2048", "--alphas", "1/2,4",
                "--output", str(out)]) == cli.EXIT_OK
    curves = demo.sine_demo(2048, (DenseFactor(1, 2), DenseFactor(4)))
    for alpha, curve in curves.items():
        path = out / f"sine_alpha_{alpha.p}_{alpha.q}.csv"
        assert float(path.read_text().splitlines()[3].removeprefix("# X0=")) == (
            curve.spectrum.magnitudes[0])
        table = np.loadtxt(path, delimiter=",", skiprows=5)
        assert len(table) == curve.spectrum.m
        for column, values in zip(table.T, (curve.spectrum.frequencies,
                                            curve.spectrum.magnitudes, curve.normalized)):
            assert column.tobytes() == values.tobytes()


def test_refused_demo_sine_creates_no_directory(tmp_path, capsys):
    out = tmp_path / "d"
    assert run(["demo-sine", "--n", "3", "--alphas", "1/2",
                "--output", str(out)]) == cli.EXIT_BAD_ALPHA
    assert "is not an integer" in capsys.readouterr().err
    assert not out.exists()


# --------------------------------------------------------------------- bench

def test_bench_writes_reports_and_passes(tmp_path, capsys):
    json_path = tmp_path / "report.json"
    csv_path = tmp_path / "records.csv"
    code = run(["bench", "--grid-n", "64,128,256,512", "--grid-alpha", "1/2,1,2",
                "--reps", "2", "--output", str(json_path), "--csv", str(csv_path)])
    out = capsys.readouterr().out
    assert code == cli.EXIT_OK
    assert json_path.exists() and csv_path.exists()
    assert "claim alpha_gt1_savings: pass" in out
    assert "claim alpha_lt1_savings: pass" in out
    assert "claim complexity_fit_alpha_2_1: pass" in out
    assert "skipped" in out                # alpha < 1 zeropad cells


def test_bench_reports_claim_failure(tmp_path, capsys, monkeypatch):
    from alpha_spectra.bench import ClaimVerdict, ScalingReport

    def broken_report(records, skipped=None):
        return ScalingReport(list(records),
                             [ClaimVerdict("alpha_gt1_savings", False)],
                             skipped or [])

    monkeypatch.setattr(cli.bench, "make_report", broken_report)
    code = run(["bench", "--grid-n", "64", "--grid-alpha", "2", "--reps", "1"])
    assert code == cli.EXIT_CLAIM_FAILED
    assert "claim alpha_gt1_savings: FAIL" in capsys.readouterr().out


def test_bench_leaves_out_an_unjudged_claim(capsys):
    # Every alpha < 1 spectrum here is below bench.MIN_LT1_BINS bins, so the
    # alpha < 1 claim judges no cell and is not reported.
    code = run(["bench", "--grid-n", "1,2", "--grid-alpha", "1/2,1,2", "--reps", "1"])
    out = capsys.readouterr().out
    assert code == cli.EXIT_OK
    assert "claim alpha_gt1_savings: pass" in out
    assert "alpha_lt1_savings" not in out


def test_bench_empty_grid(tmp_path, capsys):
    code = run(["bench", "--grid-n", "12", "--grid-alpha", "1", "--reps", "1"])
    assert code == cli.EXIT_PARSE_ERROR
    assert "no runnable grid cells" in capsys.readouterr().err


def test_bench_rejects_unknown_method(capsys):
    # The bench takes compute's method names and no other.
    for method in ("fastest", "alpha_fft"):
        with pytest.raises(SystemExit) as info:
            run(["bench", "--methods", method])
        assert info.value.code == 2
        assert (f"unknown method '{method}' (choose from auto, fft, naive, zeropad)"
                in capsys.readouterr().err)


def test_compute_and_bench_refuse_an_unknown_method_alike(signal_file, tmp_path, capsys):
    # One wording, from baseline: the flags, the executor and run_grid.
    text = "unknown method 'fast' (choose from auto, fft, naive, zeropad)"
    lines = []
    for argv in (["compute", "--input", str(signal_file), "--output", str(tmp_path / "out.csv"),
                  "--method", "fast"], ["bench", "--methods", "fast"]):
        with pytest.raises(SystemExit) as info:
            run(argv)
        assert info.value.code == cli.EXIT_PARSE_ERROR
        lines.append(single_error_line(capsys.readouterr().err))
    assert lines == [f"alpha-spectra compute: error: argument --method: {text}",
                     f"alpha-spectra bench: error: argument --methods: {text}"]
    for refuse in (lambda: executor(8, DenseFactor(1), "fast"),
                   lambda: run_grid([8], [DenseFactor(1)], methods=("fast",), reps=1)):
        with pytest.raises(ValueError) as info:
            refuse()
        assert str(info.value) == text
    assert not (tmp_path / "out.csv").exists()


def test_bench_labels_a_record_as_compute_labels_its_spectrum(tmp_path, capsys):
    # --methods auto times what compute runs by default, under the name
    # compute writes as its # method= line.
    csv_path = tmp_path / "records.csv"
    assert run(["bench", "--grid-n", "12,16", "--grid-alpha", "1", "--methods", "auto",
                "--reps", "1", "--csv", str(csv_path)]) == cli.EXIT_OK
    benched = [row.split(",")[3] for row in csv_path.read_text().splitlines()[1:]]
    computed = []
    for n in (12, 16):
        path, out = tmp_path / f"s{n}.csv", tmp_path / f"out{n}.csv"
        write_signal_csv(path, np.ones(n))
        assert run(["compute", "--input", str(path), "--output", str(out)]) == cli.EXIT_OK
        computed += [line.split("=", 1)[1] for line in out.read_text().splitlines()
                     if line.startswith("# method=")]
    assert benched == computed == [expected(n, 1, "auto")[1] for n in (12, 16)]


def test_bench_times_a_repeated_label_once(tmp_path, capsys):
    # Where auto runs the kernel, fft repeats its label: such a cell records
    # each label once and prints the skip.  Padding cannot take alpha 1/2.
    json_path = tmp_path / "r.json"
    ns, alphas, methods = (16, 32, 64, 128), ("2/1", "1/2", "1/1"), ("auto", "fft", "zeropad")
    assert run(["bench", "--grid-n", "16,32,64,128", "--grid-alpha", "2,1/2,1",
                "--methods", ",".join(methods), "--reps", "1",
                "--output", str(json_path)]) == cli.EXIT_OK
    out = capsys.readouterr().out
    report = json.loads(json_path.read_text())
    cells = [(n, a, *bench_cell(n, a, methods)) for n in ns for a in alphas]
    assert len(report["records"]) == sum(len(labels) for _, _, labels, _ in cells)
    repeats = [line for line in out.splitlines() if " is timed at this cell already, as " in line]
    assert repeats == [f"skipped N={n} alpha={a} {method}: {reason}"
                       for n, a, _, skips in cells for method, reason in skips]
    gt1, lt1 = report["verdicts"][:2]
    assert gt1["claim"] == "alpha_gt1_savings"
    assert [(d["N"], d["alpha"]) for d in gt1["details"]] == [
        (n, "2/1") for n in (16, 32, 64, 128)]
    assert [(d["N"], d["alpha"]) for d in lt1["details"]] == [
        (n, "1/2") for n in (32, 64, 128)]


# -------------------------------------------------------------------- verify

def test_verify_passes(capsys):
    assert run(["verify", "--sizes", "2,4,8,16"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert out.count("PASS") == 5
    assert "FAIL" not in out


def test_verify_reports_failure(capsys, monkeypatch):
    broken = dataclasses.replace(verify.SWEEPS[0], error=lambda signal, alpha, *runs: 1.0)
    monkeypatch.setattr(verify, "SWEEPS", (broken,) + verify.SWEEPS[1:])
    assert run(["verify", "--sizes", "2,4,8"]) == cli.EXIT_VERIFY_FAILED
    captured = capsys.readouterr()
    assert "FAIL" in captured.out
    assert "worst case" in captured.err


@pytest.mark.parametrize("sizes, skipped", [
    ("3", ["oracle_equivalence", "zero_pad_equivalence", "aliasing"]),
    ("128", ["orthogonality"]),
])
def test_verify_skips_suites_without_cases(capsys, sizes, skipped):
    assert run(["verify", "--sizes", sizes]) == cli.EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines if line.endswith("0 cases) SKIP")] == skipped
    assert sum(line.endswith(" PASS") for line in lines) == 5 - len(skipped)


def test_verify_checks_a_case_at_every_size():
    # The round-trip suite runs the oracle at alpha = 1, which every N takes,
    # so no --sizes leaves verify with nothing checked.
    for n in range(1, 97):
        assert sum(result.cases for result in verify.run_all(sizes=(n,))) > 0, n
    # A size given twice would check each of its cases twice.
    with pytest.raises(ValueError, match="N 4 given twice"):
        verify.run_all(sizes=(4, 2, 4))


# ---------------------------------------------------------- boundary probes

def test_only_main_builds_an_error_line():
    # A command raises every refusal and main prints it: no other function
    # of the library builds a string that starts with "error:".
    def owners(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Constant) and str(child.value).startswith("error:"):
                yield owner
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            yield from owners(child, f"{owner}.{child.name}" if named else owner)

    package = Path(cli.__file__).parent
    assert {owner for path in sorted(package.glob("*.py"))
            for owner in owners(ast.parse(path.read_text()), path.stem)} == {"cli.main"}


def single_error_line(err):
    """The one stderr line that reports the error; fails on a traceback."""
    assert "Traceback" not in err
    lines = [line for line in err.splitlines() if "error:" in line]
    assert len(lines) == 1, err
    return lines[0]


@pytest.mark.parametrize("name, text", [
    ("t_text.json", '{"T": "abc", "samples": [1, 2]}'),
    ("t_negative.json", '{"T": -1, "samples": [1, 2]}'),
    ("nan.csv", "index,re,im\n0,nan,0\n1,1,0\n"),
    ("nan.json", '{"samples": [NaN, 1]}'),
    ("overflow.json", '{"samples": [1e400, 1]}'),
    ("bool.json", '{"samples": [true, 1]}'),
    ("huge_int.json", '{"samples": [1' + "0" * 400 + ', 1]}'),
    ("text_time.json", '{"time": [0, "a"], "value": [1, 2]}'),
    ("nested_value.json", '{"time": [0, 1], "value": [[1], 2]}'),
    ("latin1.csv", b"index,re,im\n0,\xff,0\n"),
    pytest.param("deep.json", "[" * 100_000 + "]" * 100_000, id="deep.json"),
])
def test_compute_rejects_bad_input(tmp_path, capsys, name, text):
    path = tmp_path / name
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    code = run(["compute", "--input", str(path), "--output", str(tmp_path / "out.csv")])
    assert code == cli.EXIT_PARSE_ERROR
    err = capsys.readouterr().err
    assert err.splitlines() == [single_error_line(err)]
    assert err.startswith(f"error: {path}: ")
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("method", ["auto", "naive", "zeropad"])
def test_compute_refuses_overflowing_bins(tmp_path, capsys, method):
    # Finite samples whose sum exceeds the largest double.
    path = tmp_path / "big.csv"
    path.write_text("index,re,im\n0,1e308,0\n1,1e308,0\n")
    out = tmp_path / "out.csv"
    code = run(["compute", "--input", str(path), "--output", str(out), "--method", method])
    assert code == cli.EXIT_NOT_REPRESENTABLE
    err = capsys.readouterr().err
    assert err.splitlines() == [single_error_line(err)]
    assert err.startswith("error: bin 0 is not finite")
    assert not out.exists()


@pytest.mark.parametrize("method", ["auto", "naive", "zeropad"])
@pytest.mark.parametrize("source", ["flag", "header"])
def test_compute_refuses_overflowing_frequencies(tmp_path, capsys, method, source):
    # Spacing 1/(alpha*T) = 1e320: every frequency past bin 0 is inf.
    path = tmp_path / "short.csv"
    write_signal_csv(path, [1.0, 2.0, 3.0, 4.0], duration=1e-320 if source == "header" else 1.0)
    out = tmp_path / "out.csv"
    argv = ["compute", "--input", str(path), "--output", str(out), "--method", method,
            "--alpha", "2"]
    if source == "flag":
        argv += ["--duration", "1e-320"]
    assert run(argv) == cli.EXIT_NOT_REPRESENTABLE
    err = capsys.readouterr().err
    assert err.splitlines() == [single_error_line(err)]
    assert err.startswith("error: frequency of bin 1 is not finite")
    assert not out.exists()


def test_compute_zeropad_bins_own_their_memory(signal_file, tmp_path, monkeypatch):
    seen = {}
    read, write, make_plan = cli.io.read_signal, cli.io.write_spectrum, fastpath.plan

    def read_signal(path):
        seen["signal"] = read(path)
        return seen["signal"]

    def write_spectrum(spectrum, path, method):
        seen["spectrum"] = spectrum
        write(spectrum, path, method)

    def plan(n, alpha):
        seen["plan"] = make_plan(n, alpha)
        return seen["plan"]

    monkeypatch.setattr(cli.io, "read_signal", read_signal)
    monkeypatch.setattr(cli.io, "write_spectrum", write_spectrum)
    monkeypatch.setattr(fastpath, "plan", plan)  # what baseline.executor calls
    assert run(["compute", "--input", str(signal_file), "--output", str(tmp_path / "pad.csv"),
                "--alpha", "4", "--method", "zeropad"]) == cli.EXIT_OK
    bins = seen["spectrum"].bins
    assert not bins.flags.writeable
    assert not np.shares_memory(bins, seen["plan"].twiddles)
    assert not np.shares_memory(bins, seen["signal"].samples)


@pytest.mark.parametrize("argv", [
    ["compute", "--input", "{one}", "--output", "{tmp}/out.csv", "--alpha", "100000000000"],
    ["compute", "--input", "{one}", "--output", "{tmp}/out.csv", "--alpha", "268435457",
     "--method", "naive"],
    ["demo-sine", "--n", "2", "--alphas", "100000000000", "--output", "{tmp}/demo"],
], ids=["compute", "compute-naive", "demo-sine"])
def test_too_many_bins_exits_6(tmp_path, capsys, argv):
    # Refused by validate_pair before anything of alpha*N is allocated.
    one = tmp_path / "one.csv"
    one.write_text("index,re,im\n0,1,0\n")
    argv = [arg.format(one=one, tmp=tmp_path) for arg in argv]
    assert run(argv) == cli.EXIT_NOT_REPRESENTABLE
    err = capsys.readouterr().err
    assert err.splitlines() == [single_error_line(err)]
    assert "exceeds the limit of 268435456 bins" in err
    assert not (tmp_path / "out.csv").exists()
    assert not (tmp_path / "demo").exists()


@pytest.mark.parametrize("argv", [
    ["bench", "--reps", "0"],
    ["bench", "--grid-n", "0"],
    ["bench", "--grid-n", "64,-8"],
    ["bench", "--seed", "-1"],
    ["verify", "--seed", "-1"],
    ["verify", "--sizes", "0"],
    ["demo-sine", "--output", "unused", "--n", "0"],
    ["demo-sine", "--output", "unused", "--n", "1"],
    ["demo-sine", "--output", "unused", "--alphas", ","],
    ["bench", "--grid-alpha", ","],
    ["bench", "--methods", ","],
    ["compute", "--input", "in.csv", "--output", "out.csv", "--duration", "-1"],
    ["compute", "--input", "in.csv", "--output", "out.csv", "--duration", "nan"],
    ["compute", "--input", "in.csv", "--output", "out.csv", "--duration", "inf"],
    ["compute", "--input", "in.csv", "--output", "out.csv", "--duration", "1_0"],
    ["compute", "--input", "in.csv", "--output", "out.csv", "--duration", "\u0662"],
    # Signal lengths above MAX_BINS are refused before any signal is built.
    ["demo-sine", "--output", "unused", "--n", "268435457"],
    ["bench", "--grid-alpha", "1", "--reps", "1", "--grid-n", "64,268435457"],
    ["verify", "--sizes", "268435457"],
    ["bench", "--reps", "abc"],
])
def test_invalid_numeric_argument_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as info:
        run(argv)
    assert info.value.code == 2
    assert f"error: argument {argv[-2]}" in single_error_line(capsys.readouterr().err)


@pytest.mark.parametrize("argv, ending", [
    # A repeated grid value would time and judge its cells more than once.
    # The message is the library's (core.distinct), naming the parsed value.
    pytest.param(["bench", "--grid-n", "16,16,32,64,128", "--grid-alpha", "2,2,1/2,1", "--reps",
                  "1"], "argument --grid-n: N 16 given twice", id="argv0-16"),
    pytest.param(["bench", "--grid-n", "16", "--grid-alpha", "2, 1/2,2/1", "--reps", "1"],
                 "argument --grid-alpha: alpha 2/1 given twice", id="argv1-2/1"),
    pytest.param(["bench", "--grid-n", "16", "--methods", "fft,zeropad,fft", "--reps", "1"],
                 "argument --methods: method fft given twice", id="argv2-fft"),
    pytest.param(["verify", "--sizes", "4,4"], "argument --sizes: N 4 given twice", id="argv3-4"),
    pytest.param(["demo-sine", "--alphas", "1,2,4,2"], "argument --alphas: alpha 2/1 given twice",
                 id="argv4-2"),
])
def test_repeated_list_value_is_a_usage_error(tmp_path, capsys, argv, ending):
    outputs = [tmp_path / "r.json", tmp_path / "r.csv", tmp_path / "demo"]
    extra = {"bench": ["--output", str(outputs[0]), "--csv", str(outputs[1])],
             "verify": [], "demo-sine": ["--output", str(outputs[2])]}[argv[0]]
    with pytest.raises(SystemExit) as info:
        run(argv + extra)
    assert info.value.code == cli.EXIT_PARSE_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert single_error_line(captured.err).endswith(ending)
    assert not any(path.exists() for path in outputs)


@pytest.mark.parametrize("argv", [
    ["compute", "--input", "{signal}", "--output", "{blocked}/out.csv"],
    ["compute", "--input", "{tmp}", "--output", "{tmp}/out.csv"],
    ["bench", "--grid-n", "64", "--grid-alpha", "2", "--reps", "1", "--output", "{blocked}/r.json"],
    ["bench", "--grid-n", "64", "--grid-alpha", "2", "--reps", "1", "--csv", "{blocked}/r.csv"],
    ["demo-sine", "--n", "8", "--output", "{blocked}/demo"],
], ids=["compute-output", "compute-input-directory", "bench-output", "bench-csv", "demo-output"])
def test_unusable_path_exits_2(signal_file, tmp_path, capsys, argv):
    # "blocked" is a regular file, so no path below it can be created.
    blocked = tmp_path / "blocked"
    blocked.write_text("")
    argv = [arg.format(signal=signal_file, blocked=blocked, tmp=tmp_path) for arg in argv]
    assert run(argv) == cli.EXIT_PARSE_ERROR
    err = capsys.readouterr().err
    assert err.splitlines() == [single_error_line(err)]
    assert err.startswith("error: ")


def full_disk():
    return OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def fail_on_call(function, call):
    """``function``, except that its ``call``-th call (from 1) raises as a full disk does."""
    calls = itertools.count(1)

    def failing(*args, **kwargs):
        if next(calls) == call:
            raise full_disk()
        return function(*args, **kwargs)

    return failing


def test_compute_leaves_no_file_when_a_write_fails(tmp_path, capsys, monkeypatch):
    # The disk fills on the second of four write blocks: the first block
    # alone would read back as a shorter, valid spectrum.
    path, out = tmp_path / "s.csv", tmp_path / "out.csv"
    write_signal_csv(path, np.random.default_rng(5).normal(size=4096))
    monkeypatch.setattr(orjson, "dumps", fail_on_call(orjson.dumps, 2))
    assert run(["compute", "--input", str(path), "--output", str(out),
                "--alpha", "4"]) == cli.EXIT_PARSE_ERROR
    err = capsys.readouterr().err
    assert err.splitlines() == [single_error_line(err)] == [f"error: {full_disk()}"]
    assert not out.exists()


@pytest.mark.parametrize("broken", ["json", "csv"])
def test_bench_leaves_no_file_when_a_write_fails(tmp_path, capsys, monkeypatch, broken):
    # The disk fills part-way through one of the two reports.
    if broken == "json":
        def dump(report, fh, **kwargs):
            text = json.dumps(report, **kwargs)
            fh.write(text[: len(text) // 2])
            raise full_disk()

        monkeypatch.setattr(cli.bench, "json", SimpleNamespace(dump=dump))
    else:  # the header and one record get out
        monkeypatch.setattr(csv.DictWriter, "writerow", fail_on_call(csv.DictWriter.writerow, 3))
    outputs = [tmp_path / "r.json", tmp_path / "r.csv"]
    assert run(["bench", "--grid-n", "16", "--grid-alpha", "2", "--reps", "1",
                "--output", str(outputs[0]), "--csv", str(outputs[1])]) == cli.EXIT_PARSE_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {full_disk()}"]
    assert not any(path.exists() for path in outputs)


@pytest.mark.parametrize("argv", [
    ["compute", "--input", "{signal}", "--output", "{tmp}"],
    ["bench", "--grid-n", "16", "--grid-alpha", "2", "--reps", "1", "--output", "{tmp}"],
    ["bench", "--grid-n", "16", "--grid-alpha", "2", "--reps", "1", "--csv", "{tmp}"],
], ids=["compute", "bench-output", "bench-csv"])
def test_output_directory_is_refused_and_kept(signal_file, tmp_path, capsys, argv):
    # open() refuses the path, so the writer never opened it and removes nothing.
    argv = [arg.format(signal=signal_file, tmp=tmp_path) for arg in argv]
    assert run(argv) == cli.EXIT_PARSE_ERROR
    err = capsys.readouterr().err
    assert err.splitlines() == [f"error: [Errno 21] Is a directory: '{tmp_path}'"]
    assert tmp_path.is_dir() and signal_file.exists()


@pytest.mark.parametrize("output, csv_path", [("o.json", "o.json"), ("./o.json", "o.json")])
def test_bench_refuses_one_file_for_both_reports(tmp_path, capsys, monkeypatch, output, csv_path):
    # The records CSV would overwrite the JSON report: refused before the grid runs.
    monkeypatch.chdir(tmp_path)
    assert run(["bench", "--grid-n", "16", "--grid-alpha", "2", "--reps", "1",
                "--output", output, "--csv", csv_path]) == cli.EXIT_PARSE_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: --output and --csv name one file: {csv_path}"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("output", ["s.csv", "./s.csv"])
def test_compute_refuses_to_overwrite_its_input(tmp_path, capsys, monkeypatch, output):
    # The spectrum would replace the signal: refused before anything is read.
    monkeypatch.chdir(tmp_path)
    data = b"index,re,im\n0,1,0\n1,0,0\n"
    (tmp_path / "s.csv").write_bytes(data)
    assert run(["compute", "--input", "s.csv", "--output", output]) == cli.EXIT_PARSE_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: --input and --output name one file: {output}"]
    assert (tmp_path / "s.csv").read_bytes() == data
    assert list(tmp_path.iterdir()) == [tmp_path / "s.csv"]


@pytest.mark.parametrize("message, line", [
    ("Unable to allocate 2.00 GiB", "error: Unable to allocate 2.00 GiB"),
    (None, "error: out of memory"),
], ids=["numpy", "bare"])
@pytest.mark.parametrize("target, argv", [
    ((cli.io, "read_signal"), ["compute", "--input", "in.csv", "--output", "{out}"]),
    ((cli.demo, "sine_demo"), ["demo-sine", "--output", "{out}"]),
    ((cli.bench, "run_grid"), ["bench", "--output", "{out}"]),
    ((cli.verify, "run_all"), ["verify"]),
], ids=["compute", "demo-sine", "bench", "verify"])
def test_out_of_memory_exits_6(tmp_path, capsys, monkeypatch, target, argv, message, line):
    def out_of_memory(*args, **kwargs):
        raise MemoryError() if message is None else MemoryError(message)

    monkeypatch.setattr(*target, out_of_memory)
    out = tmp_path / "out"
    assert run([arg.format(out=out) for arg in argv]) == cli.EXIT_NOT_REPRESENTABLE
    err = capsys.readouterr().err
    assert err.splitlines() == [single_error_line(err)] == [line]
    assert not out.exists()


def test_readme_synopsis_lists_every_flag():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    synopsis = readme.split("## Command line", 1)[1].split("```")[1]
    documented = {line.split()[1]: set(re.findall(r"--[a-z][a-z-]*", line))
                  for line in synopsis.splitlines() if line.startswith("alpha-spectra ")}
    commands = next(action for action in cli.build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    flags = {name: {flag for action in parser._actions for flag in action.option_strings
                    if flag.startswith("--")} - {"--help"}
             for name, parser in commands.choices.items()}
    assert documented == flags


def test_readme_synopsis_names_the_methods_of_compute_and_bench():
    # compute and bench take the same method names, the executor's.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    synopsis = readme.split("## Command line", 1)[1].split("```")[1]
    listed = dict(re.findall(r"(--methods?) ([a-z|,]+)\]", synopsis))
    assert listed["--method"].split("|") == list(METHODS)
    assert listed["--methods"].split(",") == list(METHODS)


def test_readme_lists_every_exit_code():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("### Exit codes", 1)[1].split("\n#", 1)[0]
    documented = [int(code) for code in re.findall(r"^\|\s*(\d+)\s*\|", table, re.MULTILINE)]
    codes = [value for name, value in vars(cli).items() if name.startswith("EXIT_")]
    assert sorted(documented) == sorted(codes)
