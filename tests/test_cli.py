import argparse
import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

from alpha_spectra import (
    DenseFactor,
    IncompatibleAlphaError,
    Signal,
    Spectrum,
    cli,
    fastpath,
    naive_forward,
    run_grid,
    verify,
)
from alpha_spectra.baseline import executor

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
    assert method == "naive"               # M = 6 keeps the fast kernel out
    # %.17g round-trips a double, so the file holds the oracle's bins exactly.
    expected = naive_forward(Signal([1.0, 2.0, 3.0, 4.0]), DenseFactor(3, 2)).bins
    assert spectrum.bins.tobytes() == expected.tobytes()


def test_compute_duration_override(signal_file, tmp_path):
    out = tmp_path / "out.csv"
    assert run(["compute", "--input", str(signal_file), "--output", str(out),
                "--duration", "2.0"]) == cli.EXIT_OK
    spectrum, _ = read_spectrum_csv(out)
    assert spectrum.duration == 2.0
    assert spectrum.frequencies[1] == 0.5


def test_compute_missing_file(tmp_path, capsys):
    code = run(["compute", "--input", str(tmp_path / "absent.csv"),
                "--output", str(tmp_path / "out.csv")])
    assert code == cli.EXIT_PARSE_ERROR
    assert "no such file" in capsys.readouterr().err


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
    run_grid([n], [density], methods=("zeropad_fft",), reps=1, skipped=skipped)
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
    with pytest.raises(SystemExit) as info:
        run(["bench", "--methods", "fastest"])
    assert info.value.code == 2


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


def test_verify_with_no_case_is_an_error(capsys, monkeypatch):
    # 96 is not a power of two and above the orthogonality cut-off, so the
    # two fast-path suites and the orthogonality sweep check nothing.
    monkeypatch.setattr(verify, "SWEEPS", verify.SWEEPS[:2])
    assert run(["verify", "--sizes", "96"]) == cli.EXIT_PARSE_ERROR
    captured = capsys.readouterr()
    assert captured.out.count("SKIP") == 3
    assert "PASS" not in captured.out
    assert "no suite checked any case" in single_error_line(captured.err)


# ---------------------------------------------------------- boundary probes

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
    # Signal lengths above MAX_BINS are refused before any signal is built.
    ["demo-sine", "--output", "unused", "--n", "268435457"],
    ["bench", "--grid-alpha", "1", "--reps", "1", "--grid-n", "64,268435457"],
    ["verify", "--sizes", "268435457"],
])
def test_invalid_numeric_argument_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as info:
        run(argv)
    assert info.value.code == 2
    assert f"error: argument {argv[-2]}" in single_error_line(capsys.readouterr().err)


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


def test_readme_lists_every_exit_code():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("### Exit codes", 1)[1].split("\n#", 1)[0]
    documented = [int(code) for code in re.findall(r"^\|\s*(\d+)\s*\|", table, re.MULTILINE)]
    codes = [value for name, value in vars(cli).items() if name.startswith("EXIT_")]
    assert sorted(documented) == sorted(codes)
