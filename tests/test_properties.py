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

The reader fuzz test feeds generated CSV and JSON text to ``read_signal``:
it must return a Signal with finite samples and a positive finite duration,
or raise SignalParseError -- never anything else.  The differential reader
fuzz tests hold the readers' whole-input shortcuts to per-line and
per-entry reference copies: the same values bit for bit, or the same error.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from alpha_spectra import DenseFactor, Signal, naive_forward, naive_inverse, plan, transform_samples
from alpha_spectra.baseline import _pad_or_fold, aliased_reconstruct
from alpha_spectra.io import (
    _SIGNAL_LAYOUTS,
    SignalParseError,
    _checked_signal,
    _parse_metadata,
    _read_csv,
    read_signal,
    read_signal_json,
)

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
# them to plain per-line and per-entry references: the same columns bit for
# bit, the same line numbers and metadata, or the same error and line.

def reference_parse_columns(rows, line_nos, index_label, positions):
    width = rows[0].count(",") + 1
    cells = [cell.strip() for cell in ",".join(rows).split(",")]
    for position, line_no in enumerate(line_nos):
        row = cells[position * width:(position + 1) * width]
        if index_label is not None:
            try:
                index = int(row[0])
            except ValueError:
                raise SignalParseError(
                    f"expected an integer {index_label}, got {row[0]!r}", line_no
                ) from None
            if index != position:
                raise SignalParseError(
                    f"{index_label} {index} out of order (expected {position})", line_no
                )
        for k in positions:
            try:
                float(row[k])
            except ValueError:
                raise SignalParseError(f"expected a number, got {row[k]!r}", line_no) from None
    return [np.array([float(cell) for cell in cells[k::width]]) for k in positions]


def reference_read_csv(path):
    metadata, header, rows, line_nos = {}, None, [], []
    with open(path, "r", newline="") as fh:
        for line_no, raw in enumerate(fh, start=1):
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
            elif text.count(",") != len(header) - 1:
                raise SignalParseError(
                    f"expected {len(header)} columns, got {text.count(',') + 1}", line_no
                )
            else:
                rows.append(text)
                line_nos.append(line_no)
    columns = reference_parse_columns(rows, line_nos, *_SIGNAL_LAYOUTS[header]) if rows else None
    return metadata, header, columns, line_nos


def outcome(read, *args):
    """What ``read(*args)`` does, in a form two readers can be compared by."""
    try:
        result = read(*args)
    except Exception as exc:  # noqa: BLE001 -- the type is part of the outcome
        return ("raise", type(exc), str(exc), getattr(exc, "line", None))
    if isinstance(result, Signal):
        return ("signal", result.samples.tobytes(), repr(result.duration))
    metadata, header, columns, line_nos = result
    columns = None if columns is None else [column.tobytes() for column in columns]
    return ("csv", repr(metadata), header, columns, list(line_nos))


ODD_INDEX = st.sampled_from(["01", "+1", "1_0", "١٢", "-0", "x", "9" * 30, "", "2.0"])
ODD_CELL = st.sampled_from(["1_0", "١٢", "", "abc", "nan", "-inf", "1e400", "-0.0", "0x1"])
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
def test_read_csv_is_the_per_line_loop(fuzz_dir, text):
    path = fuzz_dir / "d.csv"
    path.write_bytes(text.encode("utf-8"))
    assert outcome(_read_csv, path) == outcome(reference_read_csv, path)


def test_undecodable_tail_leaves_the_header_error_first(tmp_path):
    # Decoded as a stream, the bytes of the first lines come in before the
    # bad byte, so the bad header is what the reader reports.
    path = tmp_path / "s.csv"
    path.write_bytes(b"index,real,imag\n" + b"0,1.0,2.0\n" * 4000 + b"\xff\n")
    with pytest.raises(SignalParseError, match="expected header") as info:
        read_signal(path)
    assert info.value.line == 1
    assert outcome(_read_csv, path) == outcome(reference_read_csv, path)


def reference_read_signal_json(path):
    with open(path, "r") as fh:
        payload = json.load(fh)
    declared = payload.get("T")
    if "samples" in payload:
        entries = payload["samples"]
        if not isinstance(entries, list) or not entries:
            raise SignalParseError("'samples' must be a non-empty list", 1)
        samples = np.empty(len(entries), dtype=np.complex128)
        try:
            for position, entry in enumerate(entries):
                if type(entry) in (int, float):
                    samples[position] = complex(entry, 0.0)
                elif isinstance(entry, list) and len(entry) == 2 and all(
                    type(part) in (int, float) for part in entry
                ):
                    samples[position] = complex(entry[0], entry[1])
                else:
                    raise SignalParseError(
                        f"sample {position} must be a number or [re, im] pair", 1
                    )
        except OverflowError:
            raise SignalParseError(f"sample {position} is too large for a float", 1) from None
        return _checked_signal(samples, None, declared)
    times, values = payload["time"], payload["value"]
    if len(times) != len(values) or not times:
        raise SignalParseError("'time' and 'value' must be equal-length non-empty lists", 1)
    reals = []
    for entries, key in ((values, "value"), (times, "time")):
        if not all(type(entry) in (int, float) for entry in entries):
            raise SignalParseError(f"'{key}' entries must be numbers", 1)
        try:
            reals.append(np.array(entries, dtype=float))
        except OverflowError:
            raise SignalParseError(f"'{key}' holds a number too large for a float", 1) from None
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
