import inspect
import json
import tracemalloc

import numpy as np
import pytest

import alpha_spectra.io as alpha_io
from alpha_spectra import DenseFactor, Signal, Spectrum, bin_frequency, cli, naive_forward
from alpha_spectra.io import (
    WRITE_BLOCK_ROWS,
    SignalParseError,
    read_signal,
    read_signal_csv,
    read_signal_json,
    write_csv,
    write_spectrum,
)

from file_formats import read_spectrum_csv, write_signal_csv


def write(tmp_path, name, text):
    path = tmp_path / name
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text)
    return path


# ------------------------------------------------------------- CSV signals

def test_read_index_form(tmp_path):
    path = write(tmp_path, "s.csv", "\n".join([
        "# T=2.0",
        "index,re,im",
        "0,1.0,0.0",
        "1,0.5,-0.25",
        "",
    ]))
    signal = read_signal_csv(path)
    np.testing.assert_array_equal(signal.samples, [1.0 + 0j, 0.5 - 0.25j])
    assert signal.duration == 2.0


def test_read_time_form_infers_duration(tmp_path):
    # Four samples at 0.25 s spacing cover a 1 s record: T = dt * N.
    path = write(tmp_path, "s.csv", "\n".join([
        "time,value",
        "0.0,1.0",
        "0.25,2.0",
        "0.5,3.0",
        "0.75,4.0",
        "",
    ]))
    signal = read_signal_csv(path)
    np.testing.assert_array_equal(signal.samples.real, [1, 2, 3, 4])
    assert signal.duration == pytest.approx(1.0)


def test_metadata_duration_wins_over_inferred(tmp_path):
    path = write(tmp_path, "s.csv", "\n".join([
        "# T=8.0",
        "time,value",
        "0.0,1.0",
        "0.25,2.0",
        "",
    ]))
    assert read_signal_csv(path).duration == 8.0


def test_duration_defaults_to_one(tmp_path):
    path = write(tmp_path, "s.csv", "index,re,im\n0,1,0\n")
    assert read_signal_csv(path).duration == 1.0


def test_nonuniform_times_are_rejected(tmp_path):
    path = write(tmp_path, "s.csv", "\n".join([
        "time,value",
        "0.0,1.0",
        "0.25,2.0",
        "0.7,3.0",
        "",
    ]))
    with pytest.raises(SignalParseError) as info:
        read_signal_csv(path)
    assert "uniformly spaced" in str(info.value)
    assert info.value.line == 4


@pytest.mark.parametrize("body, bad_line, fragment", [
    ("frequency,re\n0,1\n", 1, "expected header"),
    ("index,re,im\n0,one,0\n", 2, "expected a number"),
    ("index,re,im\n0,1,0\n2,1,0\n", 3, "out of order"),
    ("index,re,im\n0,1,0,9\n", 2, "columns"),
    ("# N=nine\nindex,re,im\n0,1,0\n", 1, "integer N"),
    ("index,re,im\n0,1,0\n1,nan,0\n", 3, "sample 1 is not finite"),
    ("time,value\n0,1\ninf,2\n", 3, "time 1 is not finite"),
    # A byte that does not decode makes a bad line wherever it sits, and an
    # earlier bad line is still reported first.
    pytest.param(b"index,re,im\n0,1,0\n1,\xff,0\n2,3,0\n", 3, "byte 0xff is not", id="row"),
    pytest.param(b"# T=2\n# caf\xe9\nindex,re,im\n0,1,0\n", 2, "byte 0xe9 is not", id="comment"),
    pytest.param(b"index,re,im\n" + b"".join(b"%d,1,0\n" % k for k in range(4000))
                 + b"4000,\xfe,0\n", 4002, "byte 0xfe is not", id="past-first-chunk"),
    pytest.param(b"index,real,imag\n" + b"0,1.0,2.0\n" * 5 + b"\xff\n", 1, "expected header",
                 id="header-before-byte"),
])
def test_csv_errors_carry_line_numbers(tmp_path, body, bad_line, fragment):
    path = write(tmp_path, "s.csv", body)
    with pytest.raises(SignalParseError) as info:
        read_signal_csv(path)
    assert info.value.line == bad_line
    assert fragment in str(info.value)


def test_compute_names_the_line_of_an_undecodable_byte(tmp_path, capsys):
    path, out = tmp_path / "s.csv", tmp_path / "out.csv"
    path.write_bytes(b"index,re,im\n0,1,0\n1,\xff,0\n")
    assert cli.main(["compute", "--input", str(path), "--output", str(out)]) == cli.EXIT_PARSE_ERROR
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: line 3: byte 0xff is not ")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert not out.exists()


def test_read_signal_csv_is_bitwise_the_cell_by_cell_parse(tmp_path):
    # Blank lines, a comment between data rows, spaces around cells and
    # -0.0 imaginary parts: each sample must be complex(float(re), float(im)).
    cells = [("1.5", "-0.0"), (" -0.0 ", " 0.0"), ("0.1", "-0.0 "), ("1e-320", "-1.7e308"),
             ("1_0", "-0.0"), ("\u0661\u0662", "7")]
    lines = ["# T=2.0", "", "index , re , im"]
    for index, (re, im) in enumerate(cells):
        lines.append(f" {index} ,{re},{im} ")
        if index == 2:
            lines += ["", "# between rows", "   "]
    path = write(tmp_path, "s.csv", "\n".join(lines) + "\n")
    signal = read_signal_csv(path)
    expected = [complex(float(re), float(im)) for re, im in cells]
    assert signal.samples.tobytes() == np.array(expected, dtype=np.complex128).tobytes()
    assert np.signbit(signal.samples.imag).tolist() == [True, False, True, True, True, False]
    assert signal.duration == 2.0


def test_empty_file_and_row_count_mismatch(tmp_path):
    with pytest.raises(SignalParseError, match="no header"):
        read_signal_csv(write(tmp_path, "empty.csv", "# T=1\n"))
    with pytest.raises(SignalParseError, match="no sample rows"):
        read_signal_csv(write(tmp_path, "headeronly.csv", "index,re,im\n"))
    with pytest.raises(SignalParseError, match="N=4"):
        read_signal_csv(write(tmp_path, "short.csv", "# N=4\nindex,re,im\n0,1,0\n"))


def test_signal_metadata_reads_only_t_and_n(tmp_path):
    # A signal's comments hold T and N; a spectrum's alpha= or method= is
    # just another comment there, however it reads.
    body = "# T=0.5\n# N=2\nindex,re,im\n0,1.5,-2\n1,0.25,0\n"
    plain = read_signal_csv(write(tmp_path, "plain.csv", body))
    noted = read_signal_csv(write(tmp_path, "noted.csv", "# alpha=abc\n# method=x\n" + body))
    assert noted.samples.tobytes() == plain.samples.tobytes()
    assert noted.duration == plain.duration == 0.5


# ------------------------------------------------------------- JSON signals

def test_json_samples_form(tmp_path):
    path = write(tmp_path, "s.json", json.dumps(
        {"T": 0.5, "samples": [[1.0, 2.0], 3.0, [0.0, -1.0]]}))
    signal = read_signal_json(path)
    np.testing.assert_array_equal(signal.samples, [1 + 2j, 3 + 0j, -1j])
    assert signal.duration == 0.5


def test_json_time_value_form(tmp_path):
    path = write(tmp_path, "s.json", json.dumps(
        {"time": [0.0, 0.5, 1.0, 1.5], "value": [1, 2, 3, 4]}))
    signal = read_signal_json(path)
    assert signal.duration == pytest.approx(2.0)


@pytest.mark.parametrize("payload, fragment", [
    ({"samples": []}, "non-empty"),
    ({"samples": [[1, 2, 3]]}, "pair"),
    ({"samples": ["one"]}, "pair"),
    ({"time": [0, 1], "value": [1]}, "equal-length"),
    ({"time": [0.0, 0.1, 0.9], "value": [1, 2, 3]}, "uniformly spaced"),
    ({}, "needs either"),
    ([1, 2], "must be an object"),
    ({"T": "abc", "samples": [1]}, "duration T must be a positive finite number"),
    ({"T": -1, "samples": [1]}, "duration T must be a positive finite number"),
    ({"T": True, "samples": [1]}, "duration T must be a positive finite number"),
    ({"samples": [1, float("nan")]}, "sample 1 is not finite"),
    ({"samples": [[0.0, float("-inf")]]}, "sample 0 is not finite"),
    ({"samples": [True]}, "pair"),
    ({"samples": [[1.0, False]]}, "pair"),
    ({"samples": [10 ** 400]}, "too large"),
    ({"time": [0, "a"], "value": [1, 2]}, "'time' entries must be numbers"),
    ({"time": [0, 1], "value": [[1], 2]}, "'value' entries must be numbers"),
    ({"time": [0, 1], "value": [1, 10 ** 400]}, "too large"),
    ({"time": [0.0, float("inf")], "value": [1, 2]}, "time 1 is not finite"),
    ({"T": None, "samples": [1]}, "duration T must be a positive finite number"),
])
def test_json_shape_errors(tmp_path, payload, fragment):
    path = write(tmp_path, "s.json", json.dumps(payload))
    with pytest.raises(SignalParseError, match=fragment):
        read_signal_json(path)


def test_json_decode_error_carries_line(tmp_path):
    path = write(tmp_path, "s.json", '{"samples": [1,\n 2,]}')
    with pytest.raises(SignalParseError) as info:
        read_signal_json(path)
    assert info.value.line == 2


def test_json_nested_too_deeply_is_a_parse_error(tmp_path):
    # Deeper than the interpreter's recursion limit: json.load raises RecursionError.
    path = write(tmp_path, "s.json", '{"samples": ' + "[" * 100_000 + "]" * 100_000 + "}")
    with pytest.raises(SignalParseError, match="nested too deeply") as info:
        read_signal_json(path)
    assert info.value.line == 1


def test_read_signal_dispatches_on_extension(tmp_path):
    csv_path = write(tmp_path, "s.csv", "index,re,im\n0,5,0\n")
    json_path = write(tmp_path, "s.json", '{"samples": [5]}')
    assert read_signal(csv_path).samples[0] == read_signal(json_path).samples[0]


# ------------------------------------------------------------------ spectra

@pytest.fixture
def spectrum():
    rng = np.random.default_rng(7)
    samples = rng.normal(size=12) + 1j * rng.normal(size=12)
    return naive_forward(Signal(samples, duration=1.5), DenseFactor(3, 2))


def test_spectrum_round_trip_is_byte_stable(tmp_path, spectrum):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    write_spectrum(spectrum, first, "naive")
    loaded, method = read_spectrum_csv(first)
    assert method == "naive"
    assert loaded.origin_n == 12
    assert loaded.alpha == DenseFactor(3, 2)
    assert loaded.duration == 1.5
    np.testing.assert_array_equal(loaded.bins, spectrum.bins)
    write_spectrum(loaded, second, method)
    assert first.read_bytes() == second.read_bytes()


def test_spectrum_file_layout(tmp_path, spectrum):
    path = tmp_path / "s.csv"
    write_spectrum(spectrum, path, "naive")
    lines = path.read_text().splitlines()
    assert lines[0] == "# N=12"
    assert lines[1] == "# alpha=3/2"
    assert lines[2] == "# T=1.5"
    assert lines[3] == "# method=naive"
    assert lines[4] == "m,freq,re,im,magnitude"
    assert len(lines) == 5 + 18
    # freq column comes from the same function the API exposes
    first_row = lines[5].split(",")
    assert first_row[0] == "0"
    assert float(first_row[1]) == spectrum.frequencies[0]
    row_three = lines[8].split(",")
    assert float(row_three[1]) == spectrum.frequencies[3]


def test_write_spectrum_matches_the_row_by_row_format(tmp_path):
    # The rows a per-bin loop writes: bin_frequency, 17 significant digits
    # and abs() of each complex128 bin, over signed zeros, subnormals,
    # +-1.7e308, a bin whose magnitude overflows to inf and several blocks.
    specials = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1.7e308, -1.7e308, 1.0, -np.pi])
    rng = np.random.default_rng(4)
    size = 2 * WRITE_BLOCK_ROWS + 3
    bins = rng.choice(specials, size) + 1j * rng.choice(specials, size)
    bins[: size // 2] = rng.normal(size=size // 2) + 1j * rng.normal(size=size // 2)
    bins[-1] = complex(1.5e308, 1.5e308)
    spectrum = Spectrum(bins, size, DenseFactor(1), duration=0.3)
    path = tmp_path / "s.csv"
    write_spectrum(spectrum, path, "fft")
    with np.errstate(over="ignore"):
        expected = [
            f"{m},{format(bin_frequency(m, spectrum.alpha, 0.3), '.17g')},"
            f"{format(value.real, '.17g')},{format(value.imag, '.17g')},{format(abs(value), '.17g')}"
            for m, value in enumerate(spectrum.bins)
        ]
    lines = path.read_text().splitlines()
    assert lines[:5] == ["# N=%d" % size, "# alpha=1/1", "# T=0.29999999999999999",
                         "# method=fft", "m,freq,re,im,magnitude"]
    assert lines[5:] == expected
    assert lines[-1].endswith(",inf")


def test_write_csv_layout(tmp_path):
    # Float comments and every cell take %.17g, other comments str(); an
    # integer-valued float cell prints as its digits.
    path = tmp_path / "t.csv"
    write_csv(path, {"N": 3, "alpha": DenseFactor(3, 2), "T": 0.1, "X0": np.float64(2.5)},
              ("k", "value"), (np.arange(3, dtype=float), np.array([0.1, -0.0, np.inf])))
    assert path.read_text().splitlines() == [
        "# N=3", "# alpha=3/2", "# T=0.10000000000000001", "# X0=2.5", "k,value",
        "0,0.10000000000000001", "1,-0", "2,inf",
    ]


# ------------------------------------------------------- written signals

def test_signal_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    signal = Signal(rng.normal(size=6) + 1j * rng.normal(size=6), duration=0.75)
    path = tmp_path / "s.csv"
    write_signal_csv(path, signal.samples, signal.duration)
    loaded = read_signal(path)
    np.testing.assert_array_equal(loaded.samples, signal.samples)
    assert loaded.duration == signal.duration


def test_seventeen_digit_floats_survive(tmp_path):
    # 0.1 + 0.2 is the canonical double that shorter formats mangle.
    value = 0.1 + 0.2
    path = tmp_path / "s.csv"
    write_signal_csv(path, [value + value * 1j], value)
    loaded = read_signal(path)
    assert loaded.samples[0].real == value
    assert loaded.samples[0].imag == value
    assert loaded.duration == value


def test_written_files_take_the_whole_text_path(tmp_path, monkeypatch):
    # The signal files np.savetxt writes are clean: every row after the
    # header passes the whole-text check, so none is read line by line.
    counts = []
    check = alpha_io._clean_rows

    def counted(*args):
        counts.append(check(*args))
        return counts[-1]

    monkeypatch.setattr(alpha_io, "_clean_rows", counted)
    rng = np.random.default_rng(5)
    write_signal_csv(tmp_path / "s.csv", rng.normal(size=40) + 1j * rng.normal(size=40), 2.0)
    read_signal(tmp_path / "s.csv")
    assert counts == [40]


def test_line_by_line_read_peaks_near_the_whole_text_read(tmp_path):
    # A CRLF file fails the whole-text check; the per-line loop that reads
    # it must not keep the decoded text or the row strings next to the cells.
    rng = np.random.default_rng(8)
    lf = tmp_path / "lf.csv"
    write_signal_csv(lf, rng.normal(size=65536) + 1j * rng.normal(size=65536))
    crlf = tmp_path / "crlf.csv"
    crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
    peaks = {}
    for path in (lf, crlf):
        tracemalloc.start()
        try:
            read_signal(path)
            peaks[path.name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks["crlf.csv"] <= 1.15 * peaks["lf.csv"]


def test_public_names():
    # io's own names: the classes and functions it imports carry another
    # module's name, and a plain value such as a number constant none.
    names = sorted(name for name, value in vars(alpha_io).items()
                   if not name.startswith("_") and not inspect.ismodule(value)
                   and getattr(value, "__module__", alpha_io.__name__) == alpha_io.__name__)
    assert names == [
        "SignalParseError", "TIME_UNIFORMITY_RTOL", "WRITE_BLOCK_ROWS", "check_duration",
        "read_signal", "read_signal_csv", "read_signal_json", "write_csv", "write_spectrum",
    ]
