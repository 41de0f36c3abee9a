import inspect
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

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

SRC = str(Path(alpha_io.__file__).resolve().parents[1])


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


@pytest.mark.parametrize("name, text", [
    ("two.csv", "time,value\n-1e308,1\n1e308,1\n"),
    ("three.csv", "time,value\n-1e308,1\n0,1\n1e308,1\n"),
    ("two.json", json.dumps({"time": [-1e308, 1e308], "value": [1, 2]})),
])
def test_time_span_past_the_largest_double_is_a_duration_error(tmp_path, name, text):
    # The steps overflow to inf: a named error at the line that ends the
    # times, and no numpy warning (an error under this suite's warning filter).
    with pytest.raises(SignalParseError,
                       match=r"^line \d+: duration T must be a positive finite number, got inf$"):
        read_signal(write(tmp_path, name, text))


def test_declared_duration_reads_a_time_span_past_the_largest_double(tmp_path):
    # The times are uniform and the declared T stands in for their span.
    path = write(tmp_path, "s.csv", "# T=1\ntime,value\n-1e308,1\n0,2\n1e308,3\n")
    signal = read_signal(path)
    np.testing.assert_array_equal(signal.samples, [1, 2, 3])
    assert signal.duration == 1.0


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
    # Two faults: the first bad line is the error, whatever the later one holds.
    pytest.param(b"# N=0\nindex,re,im\n" + b"".join(b"%d,0.0,0.0\n" % k for k in range(4))
                 + b"5,0.0,0.0\n5,0.0,0.0,1\n", 7, "index 5 out of order", id="index-then-columns"),
    pytest.param(b"index,re,im\n0,x,1\n1,2\n", 2, "got 'x'", id="cell-then-columns"),
    pytest.param(b"index,re,im\n0,x,1\n1,\xff,0\n", 2, "got 'x'", id="cell-then-byte"),
    pytest.param(b"index,re,im\n0,1,0\n2,1,0\n# T=abc\n", 3, "index 2 out of order",
                 id="index-then-comment"),
    pytest.param(b"index,re,im\n0,nan,0\n1,x,0\n", 2, "sample 0 is not finite",
                 id="not-finite-then-cell"),
    pytest.param(b"time,value\n0,1\nnan,2\n2,3\n3,inf\n", 3, "time 1 is not finite",
                 id="time-then-sample"),
    # A # T= comment is judged on its own line, before the rows after it.
    pytest.param("# T=nan\nindex,re,im\n0,x,0\n", 1,
                 "duration T must be a positive finite number, got nan", id="T-nan-then-cell"),
    pytest.param("# T=-1\nindex,re,im\n0,1,0\n", 1,
                 "duration T must be a positive finite number, got -1.0", id="T-negative"),
    # T reads as --duration does: ASCII, with no underscore.
    pytest.param("# T=1_0\nindex,re,im\n0,1,0\n", 1, "expected a number, got '1_0'",
                 id="T-underscore"),
    pytest.param("# T=\u0662\nindex,re,im\n0,1,0\n", 1, "expected a number, got '\u0662'",
                 id="T-arabic-indic"),
    # N reads as an integer flag does: ASCII digits only.
    pytest.param("# N=\u0663\nindex,re,im\n0,1,0\n1,1,0\n2,1,0\n", 1, "integer N",
                 id="N-arabic-indic"),
    pytest.param("# N=0_3\nindex,re,im\n0,1,0\n1,1,0\n2,1,0\n", 1, "integer N",
                 id="N-underscore"),
])
def test_csv_errors_carry_line_numbers(tmp_path, body, bad_line, fragment):
    path = write(tmp_path, "s.csv", body)
    with pytest.raises(SignalParseError) as info:
        read_signal_csv(path)
    assert info.value.line == bad_line
    assert fragment in str(info.value)


def test_compute_names_the_line_of_an_undecodable_byte(tmp_path, capsys):
    out = tmp_path / "out.csv"
    for name, data in [("s.csv", b"index,re,im\n0,1,0\n1,\xff,0\n"),
                       ("lf.json", b'{"T": 1,\n "samples": [1,\n 2, "\xff"]}\n'),
                       ("crlf.json", b'{"T": 1,\r\n "samples": [1,\r\n 2, "\xff"]}\r\n'),
                       ("cr.json", b'{"T": 1,\r "samples": [1,\r 2, "\xff"]}\r')]:
        path = tmp_path / name
        path.write_bytes(data)
        code = cli.main(["compute", "--input", str(path), "--output", str(out)])
        assert code == cli.EXIT_PARSE_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: line 3: byte 0xff is not ")
        assert err.count("\n") == 1 and err.endswith("\n")
        assert not out.exists()


def test_compute_refuses_an_index_that_reads_only_as_a_float(tmp_path, capsys):
    # numpy's reader must not take 1.0 as the index 1: it goes to int(), as
    # in a file that is clean and in one read line by line.
    out = tmp_path / "out.csv"
    for name, end in (("lf.csv", "\n"), ("crlf.csv", "\r\n")):
        path = write(tmp_path, name, end.join(["index,re,im", "0,1,0", "1.0,2,0", ""]).encode())
        code = cli.main(["compute", "--input", str(path), "--output", str(out)])
        assert code == cli.EXIT_PARSE_ERROR
        assert capsys.readouterr().err == (
            f"error: {path}: line 3: expected an integer index, got '1.0'\n")
        assert not out.exists()


def test_a_warning_from_numpys_reader_sends_the_rows_to_the_walk(tmp_path, monkeypatch):
    # An older numpy reads 1.0 as the index 1 and only warns; the loop's
    # error must win over whatever such a reader returns.
    def warns(*args, **kwargs):
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                      DeprecationWarning)
        return np.array([(0, 1.0, 0.0), (1, 2.0, 0.0)],
                        dtype=[("index", np.int64), ("re", float), ("im", float)])

    monkeypatch.setattr(alpha_io.np, "loadtxt", warns)
    path = write(tmp_path, "s.csv", "index,re,im\n0,1,0\n1.0,2,0\n")
    with pytest.raises(SignalParseError, match="expected an integer index, got '1.0'") as info:
        read_signal_csv(path)
    assert info.value.line == 3


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
    # RFC 8259 JSON has no NaN or Infinity literal and no number past a double.
    ({"samples": [1, float("nan")]}, "^line 1: unexpected character$"),
    ({"samples": [[0.0, float("-inf")]]}, "^line 1: no digit after minus sign$"),
    ({"samples": [True]}, "pair"),
    ({"samples": [[1.0, False]]}, "pair"),
    ({"samples": [10 ** 400]}, "^line 1: number is infinity when parsed as double$"),
    ({"time": [0, "a"], "value": [1, 2]}, "'time' entries must be numbers"),
    ({"time": [0, 1], "value": [[1], 2]}, "'value' entries must be numbers"),
    ({"time": [0, 1], "value": [1, 10 ** 400]},
     "^line 1: number is infinity when parsed as double$"),
    ({"time": [0.0, float("inf")], "value": [1, 2]}, "^line 1: unexpected character$"),
    ({"T": None, "samples": [1]}, "duration T must be a positive finite number"),
    ({"time": [0, float("nan"), 2, 3], "value": [1, 2, 3, float("inf")]},
     "^line 1: unexpected character$"),
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
    # A CR or CRLF ends a line, as in a CSV file.
    for end in ("\r", "\r\n"):
        path = write(tmp_path, "s.json", f'{{"samples": [1,{end} 2,]}}'.encode())
        with pytest.raises(SignalParseError, match="^line 2: trailing comma is not allowed$"):
            read_signal_json(path)
    # orjson's offset counts characters, so text that is not ASCII moves no line.
    path = write(tmp_path, "s.json", '{"note": "caf\u00e9 \u2603 \U0001d11e",\n "samples": [1,\n 2,]}')
    with pytest.raises(SignalParseError, match="^line 3: trailing comma is not allowed$"):
        read_signal_json(path)
    # An integer past the largest double, read or ignored, is at line 1.
    for text in ('{"samples": [%s]}', '{"note": %s, "samples": [1]}'):
        path = write(tmp_path, "s.json", text % ("7" * 5000))
        with pytest.raises(SignalParseError,
                           match="^line 1: number is infinity when parsed as double$"):
            read_signal_json(path)


def test_json_nested_too_deeply_is_a_parse_error(tmp_path):
    # Refused by its bracket count before orjson parses it.
    path = write(tmp_path, "s.json", '{"samples": ' + "[" * 100_000 + "]" * 100_000 + "}")
    with pytest.raises(SignalParseError, match="nested too deeply") as info:
        read_signal_json(path)
    assert info.value.line == 1


def test_the_workload_json_shape_reads_bitwise(tmp_path):
    rng = np.random.default_rng(7)
    x = rng.standard_normal(65536) + 1j * rng.standard_normal(65536)
    path = write(tmp_path, "s.json", json.dumps(
        {"T": 1.0, "samples": np.column_stack((x.real, x.imag)).tolist()}))
    signal = read_signal_json(path)
    assert signal.samples.tobytes() == x.tobytes()
    assert signal.duration == 1.0


def test_json_integer_t_past_the_largest_double_is_refused(tmp_path):
    # orjson reads this integer as the largest double, so T may not read as that double.
    path = write(tmp_path, "s.json", '{"T": %d, "samples": [1]}' % (int(sys.float_info.max) + 1))
    with pytest.raises(SignalParseError, match="duration T must be a positive finite number"):
        read_signal_json(path)


def nested(depth, opener="["):
    """A JSON array ``depth`` deep, each level opened by ``opener``."""
    return opener * depth + "0" + "]" * depth


#: Each level holds a string whose "]" would cancel the level's "[" if it were counted.
HIDING = '["]",'


@pytest.mark.parametrize("t", [nested(100_000), nested(2000, HIDING)], ids=["plain", "hiding"])
def test_json_nested_t_is_a_parse_error(tmp_path, t):
    # Past the nesting bound, the repr in T's error message would raise RecursionError.
    path = write(tmp_path, "s.json", '{"T": ' + t + ', "samples": [1]}')
    with pytest.raises(SignalParseError, match="^line 1: JSON nested too deeply$"):
        read_signal_json(path)


@pytest.mark.parametrize("opener", ["[", '["]\\"[{",'], ids=["plain", "strings"])
@pytest.mark.parametrize("depth", [alpha_io._JSON_MAX_DEPTH, alpha_io._JSON_MAX_DEPTH + 1])
def test_json_nesting_bound_holds_in_an_ignored_key(tmp_path, depth, opener):
    # The document is one level; the rest sits in a key the reader ignores.
    # Brackets inside its strings, one after an escaped quote, count for nothing.
    path = write(tmp_path, "s.json", '{"samples": [1], "note": ' + nested(depth - 1, opener) + "}")
    if depth > alpha_io._JSON_MAX_DEPTH:
        with pytest.raises(SignalParseError, match="^line 1: JSON nested too deeply$"):
            read_signal_json(path)
    else:
        assert read_signal_json(path).samples.tolist() == [1]


@pytest.mark.parametrize("opener", ["[", HIDING], ids=["plain", "hiding"])
def test_compute_refuses_json_deep_enough_to_crash_orjson(tmp_path, opener):
    # orjson.loads overflows the C stack at about 130,000 nested arrays and
    # the process dies with no error line; a subprocess keeps that off pytest.
    path = write(tmp_path, "deep.json", '{"samples": ' + nested(150_000, opener) + "}")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-m", "alpha_spectra.cli", "compute", "--input",
                             str(path), "--output", str(tmp_path / "out.csv")],
                            env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == cli.EXIT_PARSE_ERROR
    assert result.stderr == f"error: {path}: line 1: JSON nested too deeply\n"
    assert result.stdout == ""
    assert not (tmp_path / "out.csv").exists()


def through_fifo(path, data, read):
    """``read(path)`` on a named pipe that a second thread writes ``data`` to, once.

    A reader that opens the pipe again waits for a writer: after 10 s it gets
    one that writes nothing, and the call fails, with no thread left behind.
    """
    os.mkfifo(path)
    results = []

    def write():
        try:
            with open(path, "wb") as fh:
                fh.write(data)
        except BrokenPipeError:  # the reader never read it
            pass

    def run():
        try:
            results.append(read(path))
        except Exception as exc:  # noqa: BLE001 -- raised again below
            results.append(exc)

    writer, reader = threading.Thread(target=write), threading.Thread(target=run)
    writer.start()
    reader.start()
    reader.join(timeout=10)
    opened_twice = reader.is_alive()
    if opened_twice:  # a writer that writes nothing ends the second open
        os.close(os.open(path, os.O_WRONLY | os.O_NONBLOCK))
    writer.join(timeout=1)
    if writer.is_alive():  # the reader never opened the pipe: a reader ends the write
        os.close(os.open(path, os.O_RDONLY | os.O_NONBLOCK))
    for thread in (reader, writer):
        thread.join(timeout=10)
        assert not thread.is_alive()
    assert not opened_twice, f"read {path.name} opened the pipe a second time"
    if isinstance(results[0], Exception):
        raise results[0]
    return results[0]


@pytest.mark.parametrize("suffix, clean, malformed, error", [
    (".json", b'{"samples": [1, 2], "note": null}', b'{"samples": [1,]}',
     "line 1: trailing comma is not allowed"),
    (".csv", b"index,re,im\n0,1,0\n1,2,0\n", b"index,re,im\n0,1,\n",
     "line 2: expected a number, got ''"),
], ids=["json", "csv"])
def test_a_named_pipe_is_read_once(tmp_path, capsys, suffix, clean, malformed, error):
    signal = through_fifo(tmp_path / f"clean{suffix}", clean, read_signal)
    np.testing.assert_array_equal(signal.samples, [1, 2])
    bad, out = tmp_path / f"malformed{suffix}", tmp_path / "out.csv"
    code = through_fifo(bad, malformed,
                        lambda path: cli.main(["compute", "--input", str(path), "--output", str(out)]))
    assert code == cli.EXIT_PARSE_ERROR
    assert capsys.readouterr().err == f"error: {bad}: {error}\n"
    assert not out.exists()


def test_read_signal_dispatches_on_extension(tmp_path):
    csv_path = write(tmp_path, "s.csv", "index,re,im\n0,5,0\n")
    json_path = write(tmp_path, "s.json", '{"samples": [5]}')
    assert read_signal(csv_path).samples[0] == read_signal(json_path).samples[0]


# ------------------------------------------------------------------ spectra

def significant_digits(literal):
    """The significant digits of a decimal literal: its mantissa less leading and trailing zeros."""
    mantissa = literal.lstrip("+-").lower().partition("e")[0].replace(".", "")
    return len(mantissa.strip("0")) or 1


def assert_rows_read_back(lines, columns):
    """Each CSV line holds its row of ``columns``: every finite cell reads back as its
    value bit for bit, in no more significant digits than repr() writes, and every
    other cell is ``inf``, ``-inf`` or ``nan``."""
    assert len(lines) == len(columns[0])
    for line, values in zip(lines, zip(*columns)):
        cells = line.split(",")
        assert len(cells) == len(values)
        for cell, value in zip(cells, map(float, values)):
            if math.isfinite(value):
                assert float(cell).hex() == value.hex(), (cell, value)
                assert significant_digits(cell) <= significant_digits(repr(value)), (cell, value)
            else:
                assert cell == repr(value) and cell in ("inf", "-inf", "nan")


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
    assert first_row[0] == "0.0"
    assert float(first_row[1]) == spectrum.frequencies[0]
    row_three = lines[8].split(",")
    assert float(row_three[1]) == spectrum.frequencies[3]
    # Every cell follows one rule, the m column's included.
    assert [line.split(",")[0] for line in lines[5:]] == [f"{m}.0" for m in range(18)]
    assert_rows_read_back(lines[5:], (np.arange(18.0), spectrum.frequencies, spectrum.bins.real,
                                      spectrum.bins.imag, spectrum.magnitudes))


def test_write_spectrum_matches_the_row_by_row_format(tmp_path):
    # The values a per-bin loop gives: bin_frequency and abs() of each
    # complex128 bin, each cell read back bit for bit, over signed zeros,
    # subnormals, +-1.7e308, a bin whose magnitude overflows to inf and
    # several blocks.
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
        expected = [(m, bin_frequency(m, spectrum.alpha, 0.3), value.real, value.imag, abs(value))
                    for m, value in enumerate(spectrum.bins)]
    lines = path.read_text().splitlines()
    assert lines[:5] == ["# N=%d" % size, "# alpha=1/1", "# T=0.29999999999999999",
                         "# method=fft", "m,freq,re,im,magnitude"]
    assert len(lines) == 5 + size
    assert_rows_read_back(lines[5:], list(zip(*expected)))
    assert lines[-1].endswith(",inf")


def test_write_csv_layout(tmp_path):
    # Float comments take .17g, other comments str(); every cell is its
    # shortest round-trip decimal, an integer-valued one with ".0" and a
    # large one without "+", and non-finite cells are spelled as repr() does.
    path = tmp_path / "t.csv"
    write_csv(path, {"N": 3, "alpha": DenseFactor(3, 2), "T": 0.1, "X0": np.float64(2.5)},
              ("k", "value"), (np.arange(6, dtype=float),
                               np.array([0.1, -0.0, np.inf, -np.inf, np.nan, 1e16])))
    assert path.read_text().splitlines() == [
        "# N=3", "# alpha=3/2", "# T=0.10000000000000001", "# X0=2.5", "k,value",
        "0.0,0.1", "1.0,-0.0", "2.0,inf", "3.0,-inf", "4.0,nan", "5.0,1e16",
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
    # numpy reads every row after the header of the signal files np.savetxt
    # writes, so none is read line by line.  So it does for their CRLF
    # copies (decoding reads CRLF as LF), for copies with a space before
    # each LF (numpy strips cells as the loop does) and for copies ending in
    # blank lines (the reader drops every final LF).
    returned = []
    numpy_columns = alpha_io._numpy_columns

    def recorded(*args):
        returned.append(numpy_columns(*args))
        return returned[-1]

    monkeypatch.setattr(alpha_io, "_numpy_columns", recorded)
    rng = np.random.default_rng(5)
    lf = tmp_path / "s.csv"
    write_signal_csv(lf, rng.normal(size=40) + 1j * rng.normal(size=40), 2.0)
    data = lf.read_bytes()
    copies = {"crlf.csv": data.replace(b"\n", b"\r\n"),
              "spaced.csv": data.replace(b"\n", b" \n"),
              "blank_end.csv": data + b"\n\n"}
    for name, copy in copies.items():
        (tmp_path / name).write_bytes(copy)
    signals = [read_signal(tmp_path / name) for name in ("s.csv", *copies)]
    assert len(returned) == len(signals)
    assert all(columns is not None for columns in returned)
    for signal in signals[1:]:
        np.testing.assert_array_equal(signal.samples, signals[0].samples)
        assert signal.duration == signals[0].duration


def test_line_by_line_read_peaks_near_the_whole_text_read(tmp_path):
    # A comment after the last row makes numpy refuse the rows; the per-line
    # loop that reads such a file must not keep the decoded text, nor a
    # string per row, next to the columns it fills.
    rng = np.random.default_rng(8)
    lf = tmp_path / "lf.csv"
    write_signal_csv(lf, rng.normal(size=65536) + 1j * rng.normal(size=65536))
    commented = tmp_path / "commented.csv"
    commented.write_bytes(lf.read_bytes() + b"# end\n")
    peaks = {}
    for path in (lf, commented):
        tracemalloc.start()
        try:
            read_signal(path)
            peaks[path.name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks["commented.csv"] <= 1.15 * peaks["lf.csv"]


def test_clean_read_peaks_under_five_and_a_half_times_the_file(tmp_path):
    # numpy reads the rows from their bytes: no string per cell, and no
    # io.StringIO, which holds the text at 4 bytes per character.
    rng = np.random.default_rng(9)
    path = tmp_path / "s.csv"
    write_signal_csv(path, rng.normal(size=65536) + 1j * rng.normal(size=65536))
    tracemalloc.start()
    try:
        read_signal(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5.5 * path.stat().st_size


def test_public_names():
    # io's own names: the classes and functions it imports carry another
    # module's name, and a plain value such as a number constant none.
    names = sorted(name for name, value in vars(alpha_io).items()
                   if not name.startswith("_") and not inspect.ismodule(value)
                   and getattr(value, "__module__", alpha_io.__name__) == alpha_io.__name__)
    assert names == [
        "SignalParseError", "TIME_UNIFORMITY_RTOL", "WRITE_BLOCK_ROWS", "open_output",
        "read_signal", "read_signal_csv", "read_signal_json", "write_csv", "write_spectrum",
    ]
