import numpy as np
import pytest

from alpha_spectra import DenseFactor, Signal, cli
from alpha_spectra.io import read_spectrum, write_signal_csv


@pytest.fixture
def signal_file(tmp_path):
    rng = np.random.default_rng(11)
    signal = Signal(rng.normal(size=8) + 1j * rng.normal(size=8))
    path = tmp_path / "signal.csv"
    write_signal_csv(signal, path)
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
    fast, fast_method = read_spectrum(fft_out)
    slow, slow_method = read_spectrum(naive_out)
    assert (fast_method, slow_method) == ("fft", "naive")
    assert fast.alpha == slow.alpha == DenseFactor(2)
    assert np.max(np.abs(fast.bins - slow.bins)) < 1e-10


def test_compute_zeropad_labels_alpha(signal_file, tmp_path):
    out = tmp_path / "pad.csv"
    assert run(["compute", "--input", str(signal_file), "--output", str(out),
                "--alpha", "4", "--method", "zeropad"]) == cli.EXIT_OK
    spectrum, method = read_spectrum(out)
    assert method == "zeropad"
    assert spectrum.origin_n == 8          # original length, not the padded one
    assert spectrum.alpha == DenseFactor(4)
    assert len(spectrum.bins) == 32


def test_compute_auto_falls_back_to_naive(tmp_path):
    path = tmp_path / "four.csv"
    write_signal_csv(Signal([1.0, 2.0, 3.0, 4.0]), path)
    out = tmp_path / "out.csv"
    assert run(["compute", "--input", str(path), "--output", str(out),
                "--alpha", "3/2"]) == cli.EXIT_OK
    spectrum, method = read_spectrum(out)
    assert method == "naive"               # M = 6 keeps the fast kernel out
    assert len(spectrum.bins) == 6


def test_compute_duration_override(signal_file, tmp_path):
    out = tmp_path / "out.csv"
    assert run(["compute", "--input", str(signal_file), "--output", str(out),
                "--duration", "2.0"]) == cli.EXIT_OK
    spectrum, _ = read_spectrum(out)
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
    write_signal_csv(Signal(np.ones(12)), path)
    code = run(["compute", "--input", str(path), "--output", str(tmp_path / "out.csv"),
                "--method", "fft"])
    assert code == cli.EXIT_BAD_SIZE
    assert "--method naive" in capsys.readouterr().err


def test_compute_zeropad_rejects_thinning(signal_file, tmp_path, capsys):
    code = run(["compute", "--input", str(signal_file),
                "--output", str(tmp_path / "out.csv"),
                "--alpha", "1/2", "--method", "zeropad"])
    assert code == cli.EXIT_BAD_ALPHA
    assert "alpha >= 1" in capsys.readouterr().err


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


def test_verify_reports_failure(capsys):
    assert run(["verify", "--sizes", "2,4,8", "--inject-fault"]) == cli.EXIT_VERIFY_FAILED
    captured = capsys.readouterr()
    assert "FAIL" in captured.out
    assert "worst case" in captured.err


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


@pytest.mark.parametrize("argv", [
    ["compute", "--input", "{one}", "--output", "{tmp}/out.csv", "--alpha", "100000000000"],
    ["compute", "--input", "{one}", "--output", "{tmp}/out.csv", "--alpha", "268435457",
     "--method", "naive"],
    ["demo-sine", "--n", "1", "--alphas", "100000000000", "--output", "{tmp}/demo"],
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


@pytest.mark.parametrize("argv", [
    ["bench", "--reps", "0"],
    ["bench", "--grid-n", "0"],
    ["bench", "--grid-n", "64,-8"],
    ["bench", "--seed", "-1"],
    ["verify", "--seed", "-1"],
    ["verify", "--sizes", "0"],
    ["demo-sine", "--output", "unused", "--n", "0"],
    ["compute", "--input", "in.csv", "--output", "out.csv", "--duration", "-1"],
    ["compute", "--input", "in.csv", "--output", "out.csv", "--duration", "nan"],
    ["compute", "--input", "in.csv", "--output", "out.csv", "--duration", "inf"],
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
