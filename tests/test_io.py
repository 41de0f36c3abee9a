import json

import numpy as np
import pytest

from alpha_spectra import DenseFactor, Signal, Spectrum, bin_frequency, naive_forward
from alpha_spectra.io import (
    WRITE_BLOCK_ROWS,
    SignalParseError,
    read_signal,
    read_signal_csv,
    read_signal_json,
    read_spectrum,
    write_signal_csv,
    write_spectrum,
)


def write(tmp_path, name, text):
    path = tmp_path / name
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
])
def test_csv_errors_carry_line_numbers(tmp_path, body, bad_line, fragment):
    path = write(tmp_path, "s.csv", body)
    with pytest.raises(SignalParseError) as info:
        read_signal_csv(path)
    assert info.value.line == bad_line
    assert fragment in str(info.value)


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
    loaded, method = read_spectrum(first)
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


@pytest.mark.parametrize("mutate, fragment", [
    (lambda lines: [l for l in lines if not l.startswith("# alpha")], "missing '# alpha='"),
    (lambda lines: [l.replace("m,freq", "bin,freq") for l in lines], "expected header"),
    (lambda lines: lines[:5] + lines[6:], "out of order"),
    (lambda lines: lines[:5], "no spectrum rows"),
])
def test_spectrum_parse_errors(tmp_path, spectrum, mutate, fragment):
    path = tmp_path / "s.csv"
    write_spectrum(spectrum, path, "naive")
    lines = path.read_text().splitlines()
    path.write_text("\n".join(mutate(lines)) + "\n")
    with pytest.raises(SignalParseError, match=fragment):
        read_spectrum(path)


@pytest.mark.parametrize("body, bad_line, fragment", [
    ("# N=2\n# alpha=1\n# T=nan\nm,freq,re,im,magnitude\n0,0,1,0,1\n1,1,1,0,1\n",
     None, "duration T must be a positive finite number, got nan"),
    ("# N=2\n# alpha=1\n# T=1\nm,freq,re,im,magnitude\n0,0,1,0,1\n1,1,nan,0,nan\n",
     6, "bin 1 is not finite"),
    ("# N=3\n# alpha=1\n# T=1\nm,freq,re,im,magnitude\n0,0,1,0,1\n1,1,1,0,1\n",
     None, "expected 3 bins"),
    ("# N=3\n# alpha=1/2\n# T=1\nm,freq,re,im,magnitude\n0,0,1,0,1\n",
     None, "not an integer"),
])
def test_spectrum_rejects_what_no_spectrum_holds(tmp_path, body, bad_line, fragment):
    path = write(tmp_path, "s.csv", body)
    with pytest.raises(SignalParseError, match=fragment) as info:
        read_spectrum(path)
    assert info.value.line == bad_line


# ------------------------------------------------------------ signal output

def test_signal_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    signal = Signal(rng.normal(size=6) + 1j * rng.normal(size=6), duration=0.75)
    path = tmp_path / "s.csv"
    write_signal_csv(signal, path)
    loaded = read_signal(path)
    np.testing.assert_array_equal(loaded.samples, signal.samples)
    assert loaded.duration == signal.duration


def test_seventeen_digit_floats_survive(tmp_path):
    # 0.1 + 0.2 is the canonical double that shorter formats mangle.
    value = 0.1 + 0.2
    signal = Signal(np.array([value + value * 1j]), duration=value)
    path = tmp_path / "s.csv"
    write_signal_csv(signal, path)
    loaded = read_signal(path)
    assert loaded.samples[0].real == value
    assert loaded.samples[0].imag == value
    assert loaded.duration == value
