"""Property-based tests: the transform's algebra and the signal readers' boundary.

The algebra is checked on the fast path over power-of-two N <= 1024 and
alpha in {1/8, ..., 8}, to a relative tolerance of 1e-10:

* linearity: X(a*x + b*y) = a*X(x) + b*X(y);
* modulation: multiplying x_n by exp(+2j*pi*j*n/(alpha*N)) rolls X by j bins;
* energy: sum |X|^2 = alpha*N * sum |x|^2 for alpha >= 1 (the columns are
  orthogonal when N <= alpha*N), and alpha*N * sum |fold(x)|^2 for alpha < 1,
  where fold sums the length-alpha*N blocks of x.

At any N <= 96 and alpha*N <= 160 the oracle's bins are also numpy's FFT of
x padded or folded into alpha*N slots, to the same tolerance.

``bench`` times each executor of a grid cell once: for any list of methods,
repeats allowed, a cell's records carry the distinct labels that the
contract's rules (``contract_rules.bench_cell``) give the methods that
``compute`` runs there, and no claim judges a cell twice.

``executor``'s run, for every method, returns the contract's bins bit for
bit at finite, strictly rising frequencies, or raises OverflowError: exactly
when those bins or frequencies are not what a double holds (samples scaled
to 1e307, T of 1e-320 or 1e308).

The reader fuzz test feeds generated CSV and JSON text to ``read_signal``:
it must return a Signal with finite samples and a positive finite duration,
or raise SignalParseError -- never anything else.  The differential reader
fuzz tests hold the readers' whole-input shortcuts to per-line and
per-entry reference copies: the same values bit for bit, or the same error.
Every JSON file the reader accepts, the stdlib parser reads to the same
signal bit for bit; a file it refuses is a SignalParseError at a line,
which names an undecodable byte as ``Path.read_text()`` does; and orjson's
decimal-to-double conversion is ``float()``'s, bit for bit.

The writer property feeds ``write_csv`` tables of 1 to 5 float64 columns
and up to two write blocks and three rows, signed zeros, subnormals,
+-1.7e308, infinities and NaN among them: ``np.loadtxt`` reads every value
back bit for bit, and a NaN as NaN.

The command-line property runs whole ``compute`` command lines through
``cli.main``: signal files (valid, overflowing or fuzzed) under flags drawn
valid, malformed, extreme and repeated, in any order.  Every exit is a
documented code.  A refusal prints nothing to stdout and one ``error:``
line, writes no file and leaves the input as it was; a success writes the
bins of the contract's executor (``contract_rules``), bit for bit.
"""

import contextlib
import io
import json
import math
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import orjson
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from alpha_spectra import (
    DenseFactor,
    Signal,
    Spectrum,
    baseline,
    cli,
    make_report,
    naive_forward,
    naive_inverse,
    plan,
    run_grid,
    transform_samples,
)
from alpha_spectra.baseline import _pad_or_fold, aliased_reconstruct
from alpha_spectra.io import (
    _SIGNAL_LAYOUTS,
    WRITE_BLOCK_ROWS,
    SignalParseError,
    _checked_signal,
    _json_signal,
    _parse_metadata,
    read_signal,
    read_signal_csv,
    read_signal_json,
    write_csv,
)

from contract_rules import bench_cell, expected, reference_bins
from file_formats import read_spectrum_csv, write_signal_csv

RTOL = 1e-10
ALPHAS = [DenseFactor(1, 8), DenseFactor(1, 4), DenseFactor(1, 2),
          DenseFactor(1), DenseFactor(2), DenseFactor(4), DenseFactor(8)]


@st.composite
def shapes(draw):
    """(N, alpha, seed) with N a power of two <= 1024 and alpha*N an integer."""
    alpha = draw(st.sampled_from(ALPHAS))
    n = 1 << draw(st.integers(alpha.q.bit_length() - 1, 10))
    return n, alpha, draw(st.integers(0, 2 ** 32 - 1))


def samples(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def assert_close(got, want):
    scale = np.max(np.abs(want))
    assert np.max(np.abs(got - want)) <= RTOL * scale


PROPERTY = settings(max_examples=100, deadline=None)


@PROPERTY
@given(shapes())
def test_linearity(shape):
    n, alpha, seed = shape
    rng = np.random.default_rng(seed)
    x, y = samples(rng, n), samples(rng, n)
    a, b = complex(*rng.standard_normal(2)), complex(*rng.standard_normal(2))
    p = plan(n, alpha)
    assert_close(transform_samples(a * x + b * y, p),
                 a * transform_samples(x, p) + b * transform_samples(y, p))


@PROPERTY
@given(shapes(), st.integers(0, 2 ** 16))
def test_modulation_rolls_bins(shape, shift):
    n, alpha, seed = shape
    x = samples(np.random.default_rng(seed), n)
    p = plan(n, alpha)
    j = shift % p.m
    # Reduce j*n mod alpha*N in integers before the exponential, so the
    # modulating phases are exact to the last bit the angle allows.
    twist = np.exp(2j * np.pi * ((j * np.arange(n)) % p.m) / p.m)
    assert_close(transform_samples(x * twist, p), np.roll(transform_samples(x, p), j))


@PROPERTY
@given(shapes())
def test_energy(shape):
    n, alpha, seed = shape
    x = samples(np.random.default_rng(seed), n)
    p = plan(n, alpha)
    energy = np.sum(np.abs(transform_samples(x, p)) ** 2)
    folded = x if p.m >= n else x.reshape(-1, p.m).sum(axis=0)
    expected = p.m * np.sum(np.abs(folded) ** 2)
    assert abs(energy - expected) <= RTOL * expected


@PROPERTY
@given(st.integers(1, 96), st.integers(1, 160), st.integers(0, 2 ** 32 - 1))
def test_fft_of_the_padded_or_folded_samples_is_the_transform(n, m, seed):
    # At any N and alpha*N = m, powers of two or not, dividing N or not:
    # the bins are numpy's m-point FFT of x padded or folded into m slots.
    alpha = DenseFactor(m, n)
    signal = Signal(samples(np.random.default_rng(seed), n))
    spectrum = naive_forward(signal, alpha)
    assert_close(np.fft.fft(_pad_or_fold(signal.samples, m)), spectrum.bins)
    if m < n:
        assert_close(aliased_reconstruct(signal, alpha), naive_inverse(spectrum).samples)


BENCH_NS = (4, 6, 8, 16)
BENCH_ALPHAS = (DenseFactor(1, 2), DenseFactor(1), DenseFactor(3, 2), DenseFactor(2))


@PROPERTY
@given(st.lists(st.sampled_from(baseline.METHODS), min_size=1, max_size=5))
def test_bench_times_each_executor_of_a_cell_once(methods):
    records = run_grid(BENCH_NS, BENCH_ALPHAS, methods=methods, reps=1)
    cells = [(r.n, r.alpha, r.method) for r in records]
    assert len(set(cells)) == len(cells)
    for n in BENCH_NS:
        for alpha in BENCH_ALPHAS:
            labels = bench_cell(n, alpha, methods)[0]
            assert [m for (rn, ra, m) in cells if (rn, ra) == (n, alpha)] == labels
    for verdict in make_report(records).verdicts:
        judged = [(d["N"], d["alpha"]) for d in verdict.details if "N" in d]
        assert len(set(judged)) == len(judged)


@PROPERTY
@given(st.lists(st.sampled_from(BENCH_NS), min_size=1, max_size=3),
       st.lists(st.builds(DenseFactor, st.integers(1, 4), st.integers(1, 4)), min_size=1, max_size=3),
       st.lists(st.sampled_from(baseline.METHODS), min_size=1, max_size=4))
def test_grid_records_and_judges_each_cell_once(ns, alphas, methods):
    # Over the whole argument list: a repeated N or alpha (2/2 repeats 1) is
    # refused, and otherwise no (N, alpha, label) has two records and no
    # verdict judges a cell twice.
    if len(set(ns)) < len(ns) or len(set(alphas)) < len(alphas):
        with pytest.raises(ValueError, match="given twice"):
            run_grid(ns, alphas, methods=methods, reps=1)
        return
    records = run_grid(ns, alphas, methods=methods, reps=1)
    cells = [(r.n, r.alpha, r.method) for r in records]
    assert len(set(cells)) == len(cells)
    for verdict in make_report(records).verdicts:
        judged = [(d["N"], d["alpha"]) for d in verdict.details if "N" in d]
        assert len(set(judged)) == len(judged)


RUN_ALPHAS = (DenseFactor(1, 2), DenseFactor(1), DenseFactor(2), DenseFactor(3, 2), DenseFactor(8))
#: (N, alpha) pairs up to N = 64 that each method runs, by the contract's rules.
RUNNABLE = {method: [(n, alpha) for n in range(1, 65) for alpha in RUN_ALPHAS
                     if expected(n, alpha, method)[0] == cli.EXIT_OK]
            for method in baseline.METHODS}


@st.composite
def run_requests(draw):
    """(method, N, alpha) that ``compute`` runs."""
    method = draw(st.sampled_from(baseline.METHODS))
    return (method, *draw(st.sampled_from(RUNNABLE[method])))


@settings(max_examples=200, deadline=None)
@given(run_requests(), st.integers(0, 2 ** 32 - 1), st.sampled_from([1.0, 1e307]),
       st.sampled_from([1.0, 1e-320, 1e308]))
def test_run_returns_a_spectrum_a_double_holds_or_refuses_it(case, seed, scale, duration):
    # For every method, executor's run returns the contract's bins, finite at
    # finite and strictly rising frequencies, or raises OverflowError: exactly
    # when the reference spectrum is not one a double holds, naming its first
    # bad bin.  A numpy warning fails the test (filterwarnings = error).
    method, n, alpha = case
    signal = Signal(scale * samples(np.random.default_rng(seed), n), duration)
    with np.errstate(all="ignore"):
        bins = reference_bins(expected(n, alpha, method)[1], signal, alpha)
        frequencies = Spectrum(bins, n, alpha, duration).frequencies
    run = baseline.executor(n, alpha, method)[0]
    bad_bins, bad_frequencies = (np.flatnonzero(~np.isfinite(a)) for a in (bins, frequencies))
    if bad_bins.size:
        refusal = f"bin {bad_bins[0]} is not finite"
    elif bad_frequencies.size:
        refusal = f"frequency of bin {bad_frequencies[0]} is not finite"
    elif (np.diff(frequencies) <= 0).any():
        refusal = "frequency of bin 1 is 0"
    else:
        spectrum = run(signal)
        assert spectrum.bins.tobytes() == bins.tobytes()
        assert spectrum.frequencies.tobytes() == frequencies.tobytes()
        return
    with pytest.raises(OverflowError, match=f"^{re.escape(refusal)}:"):
        run(signal)


def test_a_failing_property_prints_its_falsifying_example(tmp_path):
    # Under the repo's warning filters, a failing @given test reports its
    # example rather than an INTERNALERROR from Hypothesis's report hook.
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, settings, strategies as st\n\n\n"
        "@settings(database=None)\n@given(st.integers(0, 10))\n"
        "def test_fails(x):\n    assert x < 5\n"
    )
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(config),
         "--rootdir", str(tmp_path), "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 1, result.stdout + result.stderr
    assert "Falsifying example" in result.stdout
    assert "INTERNALERROR" not in result.stdout + result.stderr


# ------------------------------------------------------------ reader fuzzing

FLOATS = st.floats(allow_nan=True, allow_infinity=True)
NUMBER_TEXT = st.one_of(
    FLOATS.map(repr), FLOATS.map(repr), st.integers(-10 ** 6, 10 ** 6).map(str),
    st.sampled_from(["", "abc", "1e400", "Infinity", "-nan", "0x1", "1_0", " 2 "]),
)
# Booleans and 10**400 are JSON numbers to a lax reader, but not samples.
JSON_NUMBER = st.one_of(st.integers(-10 ** 6, 10 ** 6), FLOATS, st.just(10 ** 400), st.booleans())
JSON_ANY = st.recursive(st.one_of(st.none(), st.text(max_size=4), JSON_NUMBER),
                        lambda inner: st.lists(inner, max_size=3), max_leaves=6)


@st.composite
def csv_texts(draw):
    """Mostly well-formed layouts, so that the checks behind the header run."""
    header = draw(st.sampled_from(["index,re,im", "time,value", "index,re,im", "time,value", "m,re"]))
    rows = draw(st.integers(0, 6))
    lines = []
    if draw(st.booleans()):
        lines.append(f"# T={draw(NUMBER_TEXT)}")
    if draw(st.booleans()):
        lines.append(f"# N={draw(st.sampled_from([str(rows), str(rows + 1), 'x']))}")
    lines.append(header)
    for index in range(rows):
        if header == "time,value":
            time = repr(0.25 * index) if draw(st.booleans()) else draw(NUMBER_TEXT)
            cells = [time, draw(NUMBER_TEXT)]
        else:
            first = str(index) if draw(st.integers(0, 9)) else draw(NUMBER_TEXT)
            cells = [first, draw(NUMBER_TEXT), draw(NUMBER_TEXT)]
        if not draw(st.integers(0, 9)):
            cells.append("1")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


@st.composite
def json_texts(draw):
    rows = draw(st.integers(0, 6))
    payload = {}
    if draw(st.booleans()):
        payload["T"] = draw(st.one_of(JSON_NUMBER, JSON_ANY))
    if draw(st.booleans()):
        sample = st.one_of(JSON_NUMBER, st.lists(JSON_NUMBER, min_size=2, max_size=2), JSON_ANY)
        payload["samples"] = draw(st.lists(sample, min_size=rows, max_size=rows))
    else:
        regular = [0.25 * k for k in range(rows)]
        payload["time"] = draw(st.one_of(st.just(regular),
                                         st.lists(JSON_NUMBER, min_size=rows, max_size=rows)))
        payload["value"] = draw(st.lists(st.one_of(JSON_NUMBER, JSON_ANY),
                                         min_size=rows, max_size=rows))
    return json.dumps(payload)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(csv_texts().map(lambda text: ("s.csv", text)),
                 json_texts().map(lambda text: ("s.json", text)),
                 st.tuples(st.sampled_from(["s.csv", "s.json"]), st.text(max_size=40))))
def test_read_signal_returns_a_finite_signal_or_a_parse_error(fuzz_dir, named_text):
    name, text = named_text
    path = fuzz_dir / name
    path.write_text(text, encoding="utf-8")
    try:
        signal = read_signal(path)
    except SignalParseError:
        return
    assert isinstance(signal, Signal)
    assert np.all(np.isfinite(signal.samples))
    assert math.isfinite(signal.duration) and signal.duration > 0


# ----------------------------------------------- differential reader fuzzing
#
# The readers take whole-input shortcuts on clean files.  These tests pin
# them to plain per-line and per-entry references: the same signal bit for
# bit, or the same error and line.

def reference_read_signal_csv(path):
    metadata, header, columns, last_row = {}, None, None, None
    with open(path, "r", newline="", errors="surrogateescape") as fh:
        for line_no, raw in enumerate(fh, start=1):
            for char in raw:
                if 0xDC80 <= ord(char) <= 0xDCFF:
                    raise SignalParseError(
                        f"byte 0x{ord(char) - 0xDC00:02x} is not {fh.encoding} text", line_no
                    )
            text = raw.strip()
            if not text:
                continue
            if text.startswith("#"):
                _parse_metadata(text, line_no, metadata)
            elif header is None:
                header = tuple(cell.strip().lower() for cell in text.split(","))
                if header not in _SIGNAL_LAYOUTS:
                    expected = " or ".join(f"'{','.join(names)}'" for names in _SIGNAL_LAYOUTS)
                    raise SignalParseError(f"expected header {expected}, got {text!r}", line_no)
                index_label, positions = _SIGNAL_LAYOUTS[header]
                columns = [[] for _ in positions]
            else:
                row = [cell.strip() for cell in text.split(",")]
                if len(row) != len(header):
                    raise SignalParseError(
                        f"expected {len(header)} columns, got {len(row)}", line_no
                    )
                rows = len(columns[0])
                if index_label is not None:
                    try:
                        index = int(row[0])
                    except ValueError:
                        raise SignalParseError(
                            f"expected an integer {index_label}, got {row[0]!r}", line_no
                        ) from None
                    if index != rows:
                        raise SignalParseError(
                            f"{index_label} {index} out of order (expected {rows})", line_no
                        )
                for column, k in zip(columns, positions):
                    try:
                        value = float(row[k])
                    except ValueError:
                        raise SignalParseError(
                            f"expected a number, got {row[k]!r}", line_no
                        ) from None
                    if not math.isfinite(value):
                        what = "time" if header[k] == "time" else "sample"
                        raise SignalParseError(f"{what} {rows} is not finite", line_no)
                    column.append(value)
                last_row = line_no
    if header is None:
        raise SignalParseError("no header row found")
    if not columns[0]:
        raise SignalParseError("no sample rows found")
    if header == ("index", "re", "im"):
        samples, times = [complex(re, im) for re, im in zip(*columns)], None
    else:
        samples, times = [complex(value, 0.0) for value in columns[1]], np.array(columns[0])
    samples = np.array(samples, dtype=np.complex128)
    if "N" in metadata and metadata["N"] != len(samples):
        raise SignalParseError(
            f"metadata declares N={metadata['N']} but file holds {len(samples)} rows"
        )
    return _checked_signal(samples, times, metadata.get("T"), last_row)


def outcome(read, *args):
    """What ``read(*args)`` does, in a form two readers can be compared by."""
    try:
        signal = read(*args)
    except Exception as exc:  # noqa: BLE001 -- the type is part of the outcome
        return ("raise", type(exc), str(exc), getattr(exc, "line", None))
    return ("signal", signal.samples.tobytes(), repr(signal.duration))


ODD_INDEX = st.sampled_from(["01", "+1", "1_0", "١٢", "-0", "x", "9" * 30, "", "2.0", "1e0"])
ODD_CELL = st.sampled_from(["1_0", "١٢", "", "abc", "nan", "-inf", "1e400", "-0.0", "0x1",
                            "1#", "'1'", "1j", "infinity", "+nan", "1" + "0" * 400])
PAD = st.sampled_from([" ", "\t", "\x1c", "\x0b", " \t"])
BETWEEN = st.sampled_from(["", "  ", "\t", "# note", "# T=2.5", "# N=x", "# alpha=x", "\x1c"])
LINE_END = st.sampled_from(["\r\n", "\r"])
RARE = st.sampled_from([False] * 24 + [True])  # shrinks towards False
CELL_SHIFT = st.sampled_from([0] * 16 + [1, -1, 2, -2])


@st.composite
def differential_csv(draw):
    """Mostly clean CSV text, each kind of dirt drawn rarely and on its own."""
    header = draw(st.sampled_from(["index,re,im", "time,value"]))
    rare = lambda: draw(RARE)  # noqa: E731
    lines = []
    if draw(st.booleans()):
        lines.append(f"# T={draw(st.sampled_from(['1', '0.5', 'nan', 'x']))}")
    lines.append(f"# N={draw(st.integers(0, 6))}")
    if draw(st.booleans()):  # a spectrum's metadata, which a signal ignores
        lines += [f"# alpha={draw(st.sampled_from(['1/2', 'abc']))}", "# method=fft"]
    lines.append(header.upper() if rare() else header)
    carry = 0
    for index in range(draw(st.integers(0, 6))):
        if rare():
            lines.append(draw(BETWEEN))
        cells = [repr(draw(st.floats(allow_nan=False))) for _ in header.split(",")]
        if header == "time,value":
            cells[0] = repr(0.5 * index)
        else:
            cells[0] = str(index)
            if rare():
                cells[0] = draw(ODD_INDEX) if draw(st.booleans()) else str(index + 1)
        if rare():
            cells[draw(st.integers(1, len(cells) - 1))] = draw(ODD_CELL)
        # One cell more or less, or one cell moved to or from the next row,
        # which keeps the file's comma total right.
        shift = carry or draw(CELL_SHIFT)
        carry = -shift // 2 if abs(shift) == 2 else 0
        if shift > 0:
            cells.append("1")
        elif shift < 0:
            cells.pop()
        if rare():
            k = draw(st.integers(0, len(cells) - 1))
            cells[k] = draw(PAD) + cells[k] + draw(PAD)
        line = ",".join(cells)
        if rare():
            line = draw(PAD) + line + draw(PAD)
        if rare():  # a commented-out row holds the header's number of commas
            lines.append("#" + line)
        lines.append(line)
    text = "".join(line + (draw(LINE_END) if rare() else "\n") for line in lines)
    if rare():
        text = text.replace("\n", draw(LINE_END))
    if rare():
        text = text.rstrip("\n")
    return text


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(differential_csv())
@example("index,re,im\n0,1.0,2.0,1\n1,3.0\n2,4.0,5.0\n")
@example("index,re,im\n0,1.0\n1,2.0,3.0,4.0\n")
@example("time,value\n0,1\n#0.5,2\n1,3\n")
@example("index,re,im\n0,1.0\r,2.0\n")
@example("# N=2\n# alpha=1/2\n# T=1\nindex,re,im\n0,1,0\n\n1,1,1")
# numpy's reader must leave ``#`` and quotes in the cell, and read no
# integer through a float.
@example("index,re,im\n0,1,2#3\n")
@example('index,re,im\n0,"1",2\n')
@example("index,re,im\n0,1,2\n1e0,3,4\n")
# numpy skips an empty line: the row count must send such a file to the loop.
@example("time,value\n0,1\n\n0.5,2\n")
# Two faults: the first bad line is the error, whatever is wrong with the
# later one (a column count, a byte that does not decode, a metadata comment).
@example("# N=0\nindex,re,im\n0,0.0,0.0\n1,0.0,0.0\n2,0.0,0.0\n3,0.0,0.0\n5,0.0,0.0\n"
         "5,0.0,0.0,1\n")
@example("index,re,im\n0,x,1\n1,2\n")
@example("index,re,im\n0,x,1\n1,\udcff,0\n")
@example("index,re,im\n0,1,0\n2,1,0\n# T=abc\n")
# A value that is not finite is a fault of its own line, a row's time first.
@example("index,re,im\n0,nan,0\n1,x,0\n")
@example("time,value\n0,1\nnan,2\n2,3\n3,inf\n")
def test_read_csv_is_the_per_line_loop(fuzz_dir, text):
    path = fuzz_dir / "d.csv"
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    assert outcome(read_signal_csv, path) == outcome(reference_read_signal_csv, path)


def test_undecodable_tail_leaves_the_header_error_first(tmp_path):
    # Decoded as a stream, the bytes of the first lines come in before the
    # bad byte, so the bad header is what the reader reports.
    path = tmp_path / "s.csv"
    path.write_bytes(b"index,real,imag\n" + b"0,1.0,2.0\n" * 4000 + b"\xff\n")
    with pytest.raises(SignalParseError, match="expected header") as info:
        read_signal(path)
    assert info.value.line == 1
    assert outcome(read_signal_csv, path) == outcome(reference_read_signal_csv, path)


def reference_read_signal_json(path):
    try:
        payload = orjson.loads(path.read_bytes())
    except orjson.JSONDecodeError as exc:
        raise SignalParseError(exc.msg, exc.lineno) from None
    declared = payload.get("T")
    if "samples" in payload:
        entries = payload["samples"]
        if not isinstance(entries, list) or not entries:
            raise SignalParseError("'samples' must be a non-empty list", 1)
        samples = np.empty(len(entries), dtype=np.complex128)
        for position, entry in enumerate(entries):
            if type(entry) in (int, float):
                samples[position] = complex(entry, 0.0)
            elif isinstance(entry, list) and len(entry) == 2 and all(
                type(part) in (int, float) for part in entry
            ):
                samples[position] = complex(entry[0], entry[1])
            else:
                raise SignalParseError(f"sample {position} must be a number or [re, im] pair", 1)
        return _checked_signal(samples, None, declared)
    times, values = payload["time"], payload["value"]
    if len(times) != len(values) or not times:
        raise SignalParseError("'time' and 'value' must be equal-length non-empty lists", 1)
    reals = []
    for entries, key in ((values, "value"), (times, "time")):
        if not all(type(entry) in (int, float) for entry in entries):
            raise SignalParseError(f"'{key}' entries must be numbers", 1)
        reals.append(np.array(entries, dtype=float))
    return _checked_signal(reals[0], reals[1], declared)


CLEAN_NUMBER = st.one_of(st.integers(-10 ** 20, 10 ** 20), st.floats(allow_nan=False),
                         st.just(-0.0))
ODD_ENTRY = st.one_of(st.booleans(), st.none(), st.text(max_size=3), st.just(10 ** 400),
                      st.lists(CLEAN_NUMBER, max_size=3), st.just([[1.0, 2.0], 3.0]),
                      st.just([1.0, 10 ** 400]), st.just([True, 0.0]))


@st.composite
def differential_json(draw):
    """A samples list of numbers or of pairs, or a time/value pair of lists."""
    rows = draw(st.integers(1, 6))
    form = draw(st.sampled_from(["numbers", "pairs", "time"]))
    pair = st.lists(CLEAN_NUMBER, min_size=2, max_size=2)
    clean = {"numbers": CLEAN_NUMBER, "pairs": pair, "time": CLEAN_NUMBER}[form]
    entries = []
    for _ in range(rows):
        rare = draw(st.sampled_from([False] * 8 + [True]))
        odd = st.one_of(ODD_ENTRY, CLEAN_NUMBER if form == "pairs" else pair)
        entries.append(draw(odd if rare else clean))
    payload = {"T": 1.0} if draw(st.booleans()) else {}
    if form == "time":
        payload["time"] = [0.25 * k for k in range(rows)] if draw(st.booleans()) else entries
        payload["value"] = entries
    else:
        payload["samples"] = entries
    return json.dumps(payload)


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(differential_json())
def test_read_signal_json_is_the_per_entry_loop(fuzz_dir, text):
    path = fuzz_dir / "d.json"
    path.write_text(text, encoding="utf-8")
    assert outcome(read_signal_json, path) == outcome(reference_read_signal_json, path)


LARGEST_INT = int(sys.float_info.max)
# Where orjson and the stdlib parser part: non-finite literals, integers
# that orjson reads as floats, and numbers past the largest double.
PARTING_NUMBER = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, LARGEST_INT + 1,
                                            10 ** 400, -2 ** 64]),
                           st.integers(2 ** 63, 2 ** 70))


@st.composite
def two_parser_json(draw, undecodable=False):
    """JSON text that orjson refuses or reads otherwise: differential_json's
    documents with parting numbers as T, in an ignored key and as samples or
    parts of a pair, with LF, CR or CRLF line ends, and at times a leading
    byte order mark.  With ``undecodable``, at times one or two bytes of
    0x80 to 0xff go in anywhere, as their ``surrogateescape`` characters.
    """
    payload = json.loads(draw(differential_json()))
    if draw(st.booleans()):
        payload["note"] = draw(PARTING_NUMBER)
    if draw(st.booleans()):
        payload["T"] = draw(st.one_of(PARTING_NUMBER, st.just(sys.float_info.max)))
    parting_sample = st.one_of(PARTING_NUMBER, st.lists(st.one_of(CLEAN_NUMBER, PARTING_NUMBER),
                                                        min_size=2, max_size=2))
    entries = payload.get("samples", payload.get("value"))
    for position in range(len(entries)):
        if draw(st.sampled_from([False] * 3 + [True])):
            entries[position] = draw(parting_sample)
    text = json.dumps(payload, indent=draw(st.sampled_from([None, 1])))
    text = text.replace("\n", draw(st.sampled_from(["\n", "\r", "\r\n"])))
    text = ("\ufeff" if draw(st.sampled_from([False] * 7 + [True])) else "") + text
    if undecodable and draw(st.sampled_from([False] * 3 + [True])):
        for _ in range(draw(st.integers(1, 2))):
            k = draw(st.integers(0, len(text)))
            text = text[:k] + chr(0xDC00 + draw(st.integers(0x80, 0xFF))) + text[k:]
    return text


def read_text_read_signal_json(path):
    """The stdlib parser alone on the text ``Path.read_text()`` decodes, naming
    the line of a byte that does not decode from the offset of its error.
    """
    try:
        text = path.read_text()
    except UnicodeDecodeError as exc:
        before = exc.object[:exc.start].decode(exc.encoding)
        line = before.replace("\r\n", "\n").replace("\r", "\n").count("\n") + 1
        raise SignalParseError(f"byte 0x{exc.object[exc.start]:02x} is not {exc.encoding} text",
                               line) from None
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SignalParseError(exc.msg, exc.lineno) from None
    except ValueError as exc:
        raise SignalParseError(str(exc), 1) from None
    except RecursionError:
        raise SignalParseError("JSON nested too deeply", 1) from None
    return _json_signal(payload)


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(two_parser_json(undecodable=True))
@example('{"T": %d, "samples": [1]}' % (LARGEST_INT + 1))
@example('{"T": %s, "samples": [1]}' % ("[" * 2000 + "]" * 2000))
@example('{"T": %s0%s, "samples": [1]}' % ('["]",' * 2000, "]" * 2000))
@example('{"note": NaN, "samples": [[1.5, 18446744073709551616]]}')
@example('{"T": 1,\r\n "samples": [1,\r\udcff\n 2, "\udce9"]}')
@example('{"samples": [1, 2], "note": "caf\udce9"}')
def test_read_signal_json_accepts_only_what_the_stdlib_parser_reads_alike(fuzz_dir, text):
    path = fuzz_dir / "a.json"
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    got, want = outcome(read_signal_json, path), outcome(read_text_read_signal_json, path)
    if got[0] == "signal" or "byte 0x" in want[2]:
        assert got == want
    else:
        lines = path.read_bytes().replace(b"\r\n", b"\n").replace(b"\r", b"\n").count(b"\n") + 1
        assert got[1] is SignalParseError and 1 <= got[3] <= lines


def bits(number) -> bytes:
    return struct.pack("<d", number)


@st.composite
def decimal_literals(draw):
    """JSON float literals of 1 to 40 significant digits, exponents to both ends of a double."""
    integer = draw(st.text("0123456789", min_size=1, max_size=40)).lstrip("0") or "0"
    fraction = draw(st.text("0123456789", max_size=40))
    exponent = draw(st.one_of(st.none(), st.integers(-360, 330)))
    if not fraction and exponent is None:
        exponent = 0
    return "".join([draw(st.sampled_from(["", "-"])), integer, f".{fraction}" if fraction else "",
                    "" if exponent is None else f"e{exponent:+d}"])


@settings(max_examples=1000, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False), decimal_literals())
def test_orjson_rounds_decimals_as_float_does(x, literal):
    # '%.17g' may write an integer literal, which JSON reads as an int.
    g17 = "%.17g" % x
    float_literal = g17 if "." in g17 or "e" in g17 else g17 + "e0"
    for text in (repr(x), float_literal, "%.20e" % x, literal):
        if math.isinf(float(text)):
            with pytest.raises(orjson.JSONDecodeError):
                orjson.loads(text)
        else:
            assert bits(orjson.loads(text)) == bits(float(text)), text


@PROPERTY
@given(st.one_of(st.integers(2 ** 63, 2 ** 70), st.integers(LARGEST_INT - 2 ** 980, LARGEST_INT)))
def test_orjson_reads_an_integer_past_int64_as_float_does(n):
    value = orjson.loads(str(n))
    if n < 2 ** 64:
        assert value == n and type(value) is int
    else:
        assert bits(value) == bits(float(n))


# ------------------------------------------------------------ the CSV writer

SPECIAL_CELLS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7e308, -1.7e308,
                 math.inf, -math.inf, math.nan)
MAX_WRITE_ROWS = 2 * WRITE_BLOCK_ROWS + 3


@settings(max_examples=50, deadline=None)
@example(5, MAX_WRITE_ROWS, 0, [(0, math.nan), (1, -math.inf), (5 * MAX_WRITE_ROWS - 1, math.inf)])
@given(st.integers(1, 5), st.integers(0, MAX_WRITE_ROWS), st.integers(0, 2 ** 32 - 1),
       st.lists(st.tuples(st.integers(0, 5 * MAX_WRITE_ROWS - 1), st.sampled_from(SPECIAL_CELLS)),
                max_size=12))
def test_write_csv_reads_back_bitwise(tmp_path_factory, width, rows, seed, specials):
    # Random bit patterns reach every exponent, NaN payloads included, and
    # half the cells are ordinary numbers; the specials land anywhere.
    rng = np.random.default_rng(seed)
    table = np.frombuffer(rng.bytes(8 * rows * width), dtype=float).reshape(rows, width).copy()
    ordinary = rng.random(table.shape) < 0.5
    table[ordinary] = rng.standard_normal(np.count_nonzero(ordinary))
    for position, value in specials:
        if table.size:
            table.flat[position % table.size] = value
    path = tmp_path_factory.mktemp("write_csv") / "t.csv"
    names = [f"c{k}" for k in range(width)]
    write_csv(path, {"rows": rows}, names, list(table.T))
    if not rows:
        assert path.read_text() == f"# rows=0\n{','.join(names)}\n"
        return
    back = np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)
    nan = np.isnan(table)
    assert np.array_equal(np.isnan(back), nan)
    assert np.array_equal(back.view(np.uint64)[~nan], table.view(np.uint64)[~nan])


# ------------------------------------------------- compute command lines

COMPUTE_NS = (1, 2, 3, 4, 6, 8, 12, 16, 64)
COMPUTE_EXITS = {cli.EXIT_OK, cli.EXIT_PARSE_ERROR, cli.EXIT_BAD_ALPHA, cli.EXIT_BAD_SIZE,
                 cli.EXIT_NOT_REPRESENTABLE}
# Valid, malformed (what only int() reads among them) and extreme values;
# alpha*N stays within 512 bins wherever the pair is accepted.
COMPUTE_FLAGS = st.one_of(
    st.tuples(st.just("--alpha"), st.sampled_from(
        ["1", "2", "4", "8", "1/2", "1/4", "1/8", "3/2", "3", "2/3", "5/3", "x", "1_0", "\u0662",
         "", "0", "268435457", "100000000000000000000", "1/100000000000000000000"])),
    st.tuples(st.just("--method"), st.sampled_from([*baseline.METHODS, " naive ", "x", ""])),
    st.tuples(st.just("--duration"), st.sampled_from(
        ["1", "0.5", "2.5", "1e-320", "x", "1_0", "\u0662", "", "0", "-1", "nan", "inf", "1e400",
         "100000000000000000000"])),
)


@st.composite
def compute_inputs(draw):
    """(file name, content): mostly a signal (N, seed, scale), else reader-fuzz text."""
    name = draw(st.sampled_from(["s.csv", "s.json"]))
    if draw(st.integers(0, 3)):
        # At 1e307 the sum of a few samples overflows a double.
        return name, (draw(st.sampled_from(COMPUTE_NS)), draw(st.integers(0, 2 ** 32 - 1)),
                      draw(st.sampled_from([1.0, 1.0, 1.0, 1e307])))
    return name, draw(csv_texts() if name == "s.csv" else json_texts())


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(compute_inputs(), st.lists(COMPUTE_FLAGS, max_size=4), RARE)
@example(("s.csv", (8, 0, 1.0)), [("--alpha", "2"), ("--method", "zeropad")], False)
@example(("s.json", (6, 0, 1.0)), [("--alpha", "3/2"), ("--alpha", "1/2")], False)
@example(("s.csv", (4, 0, 1.0)), [], True)
@example(("s.csv", "index,re,im\n0,one,0\n"), [], False)
@example(("s.csv", "# T=nan\nindex,re,im\n0,x,0\n"), [], False)
@example(("s.json", (4, 0, 1.0)), [("--alpha", "1_0")], False)
@example(("s.csv", (6, 0, 1.0)), [("--alpha", "1/4")], False)
@example(("s.json", (12, 0, 1.0)), [("--method", "fft")], False)
@example(("s.csv", "index,re,im\n0,1e308,0\n1,1e308,0\n"), [], False)
@example(("s.csv", (4, 0, 1.0)), [("--duration", "1e-320"), ("--alpha", "2")], False)
@example(("s.json", (1, 0, 1.0)), [("--alpha", "268435457")], False)
def test_compute_command_line_outcome(tmp_path_factory, named_input, flags, overwrite):
    name, content = named_input
    work = tmp_path_factory.mktemp("compute")
    path = work / name
    if isinstance(content, str):
        path.write_text(content, encoding="utf-8")
    else:
        n, seed, scale = content
        x = scale * samples(np.random.default_rng(seed), n)
        if name == "s.csv":
            write_signal_csv(path, x)
        else:
            path.write_text(json.dumps({"samples": [[float(z.real), float(z.imag)] for z in x]}))
    data = path.read_bytes()
    output = f"{work}/./{name}" if overwrite else str(work / "out.csv")
    argv = ["compute", "--input", str(path), "--output", output]
    argv += [text for flag in flags for text in flag]
    out, err = io.StringIO(), io.StringIO()
    usage = False
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's usage error
            code, usage = exc.code, True
    errors = [line for line in err.getvalue().splitlines() if "error:" in line]
    assert code in COMPUTE_EXITS, err.getvalue()
    assert path.read_bytes() == data
    if code:
        assert out.getvalue() == ""
        assert len(errors) == 1
        assert usage or err.getvalue() == errors[0] + "\n"
        assert list(work.iterdir()) == [path]
        return
    assert errors == []
    args = cli.build_parser().parse_args(argv)
    signal = read_signal(path)
    if args.duration is not None:
        signal = Signal(signal.samples, args.duration)
    spectrum, label = read_spectrum_csv(output)
    assert (spectrum.origin_n, spectrum.alpha, spectrum.duration) == (
        len(signal), args.alpha, signal.duration)
    assert label == expected(len(signal), args.alpha, args.method)[1]
    assert spectrum.bins.tobytes() == reference_bins(label, signal, args.alpha).tobytes()
