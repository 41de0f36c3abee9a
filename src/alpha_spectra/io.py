"""File formats of the command line: signals in, spectra out.

Signals come in as CSV (columns ``index,re,im`` or ``time,value``; a ``#``
comment line may carry ``T=<seconds>`` or ``N=<count>`` metadata, and any
other comment is ignored) or as JSON.  Spectra go out as CSV with
``# N=``, ``# alpha=p/q``, ``# T=`` and ``# method=`` metadata followed by
``m,freq,re,im,magnitude`` rows.  Floats are rendered with 17 significant
digits, which round-trips doubles exactly.

The CSV reader works on whole columns.  It reads the file's bytes once,
decodes them under one rule (``_text``, where the first line holding a byte
that does not decode is a bad line), and scans the lines up to the header
for metadata.  When the rest is clean -- ASCII rows ended by LF alone, no
comment, blank line or whitespace, and the header's number of commas in
every row, all checked with a few whole-text and numpy operations -- it is
split into cells in one go; otherwise the remaining lines are read one by
one.  Either way numpy then parses each number column, applying Python's
``int`` or ``float`` to every cell, and only when it rejects a column are
the rows walked cell by cell, to name the first bad cell and its line.  A
JSON sample list of all numbers or all number pairs is converted in one
``np.fromiter``; any other list is walked entry by entry, to name the first
bad sample.  Both shortcuts give the values, bit for bit, and the errors of
the walks they skip.  JSON is decoded strictly: a byte that does not decode
is an error there too, never a character inside a string.

write_csv writes the spectrum and demo CSVs: ``# key=value`` comments, a
header, then ``%.17g`` rows, WRITE_BLOCK_ROWS at a time.  A spectrum's
``freq`` and ``magnitude`` are ``Spectrum.frequencies`` and
``Spectrum.magnitudes``, bitwise ``bin_frequency`` and Python's ``abs``.
"""

import io
import json
import re
import sys
from itertools import chain
from pathlib import Path

import numpy as np

from .core import Signal, Spectrum

#: Relative tolerance when checking that a time column is uniformly spaced.
TIME_UNIFORMITY_RTOL = 1e-9

#: Rows a writer formats per write: bounds the text held in memory.
WRITE_BLOCK_ROWS = 4096

#: Accepted CSV headers, each with the label of its index column (None when
#: there is none) and the positions of the float columns the reader parses.
_SIGNAL_LAYOUTS = {("index", "re", "im"): ("index", (1, 2)), ("time", "value"): (None, (0, 1))}

#: What a byte that does not decode becomes in ``_text``.
_UNDECODABLE = re.compile("[\udc80-\udcff]")


class SignalParseError(ValueError):
    """Malformed signal file; ``line`` is 1-based when known."""

    def __init__(self, message, line=None):
        self.line = line
        where = f"line {line}: " if line is not None else ""
        super().__init__(f"{where}{message}")


def _parse_float(text, line):
    try:
        return float(text)
    except ValueError:
        raise SignalParseError(f"expected a number, got {text!r}", line) from None


def check_duration(value) -> float:
    """``value`` as a duration in seconds, or SignalParseError.

    A duration must be a real number (not a bool), finite and positive.
    """
    if type(value) in (int, float) and 0 < value <= sys.float_info.max:
        return float(value)
    raise SignalParseError(f"duration T must be a positive finite number, got {value!r}")


def _checked_signal(samples, times, declared, line_of=lambda position: 1) -> Signal:
    """The checks every signal reader shares, then the Signal.

    Samples and times must be finite, and times uniformly spaced.  The
    duration is the declared T when there is one (``declared`` is None
    otherwise), else N times the time step when there is a time column,
    else one second.  ``line_of`` maps a sample position to the 1-based
    line reported in errors.
    """
    for what, values in (("sample", samples), ("time", times)):
        if values is not None:
            bad = np.flatnonzero(~np.isfinite(values))
            if bad.size:
                raise SignalParseError(f"{what} {bad[0]} is not finite", line_of(bad[0]))
    duration = 1.0
    if times is not None and times.size >= 2:
        steps = np.diff(times)
        mean_step = float(np.mean(steps))
        if not (mean_step > 0 and np.max(np.abs(steps - mean_step)) <= TIME_UNIFORMITY_RTOL * mean_step):
            raise SignalParseError("time values are not uniformly spaced", line_of(times.size - 1))
        duration = mean_step * times.size
    if declared is not None:
        duration = declared
    return Signal(samples, check_duration(duration))


def _parse_metadata(line_text, line_no, metadata):
    """Record a ``# T=`` or ``# N=`` comment in ``metadata``; ignore any other."""
    body = line_text.lstrip("#").strip()
    if "=" in body:
        key, _, raw = body.partition("=")
        key = key.strip()
        if key == "T":
            metadata["T"] = _parse_float(raw.strip(), line_no)
        elif key == "N":
            try:
                metadata["N"] = int(raw.strip())
            except ValueError:
                raise SignalParseError(f"expected an integer N, got {raw.strip()!r}", line_no) from None


def _parse_columns(cells, line_nos, index_label, positions) -> list:
    """The float columns at ``positions`` of a CSV's data cells, as arrays.

    ``cells`` are the cells of the data rows in order, the same number per
    row, and ``line_nos`` the rows' 1-based line numbers.  With an
    ``index_label``, column 0 must read 0, 1, 2, ... as integers.  A
    malformed file raises the error of its first bad row, the row's cells
    checked from the left.
    """
    width = len(cells) // len(line_nos)
    try:
        # numpy reads each index cell with Python's int, so a column that
        # passes is one the walk below accepts.
        if index_label is None or np.array_equal(
            np.array(cells[::width], dtype=np.int64), np.arange(len(line_nos))
        ):
            return [np.array(cells[k::width], dtype=float) for k in positions]
    except (ValueError, OverflowError):  # some cell is not a number to int or float
        pass
    # Cell by cell, stripped: float() rejects some characters that strip() removes.
    cells = [cell.strip() for cell in cells]
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
            _parse_float(row[k], line_no)
    return [np.array(cells[k::width], dtype=float) for k in positions]


def _clean_rows(rows_text, commas) -> int:
    """The number of rows in ``rows_text`` when it is clean, else 0.

    Clean means ASCII rows split by LF alone, each with exactly ``commas``
    commas, no ``#`` and no byte at or below the space other than the row
    breaks: nothing for strip() to remove, no blank or comment line and no
    other line break.  Such rows are their own stripped lines, so their
    cells are the per-line loop's cells.
    """
    if not rows_text.isascii():
        return 0
    raw = rows_text.encode("ascii")
    if b"#" in raw:
        return 0
    codes = np.frombuffer(raw, dtype=np.uint8)
    breaks = np.flatnonzero(codes == 10)
    rows = breaks.size + 1
    if np.count_nonzero(codes <= 32) != breaks.size:  # CR, tab, space, \x1c-\x1f ...
        return 0
    # Sorted comma positions, cut into ``commas`` per row: each row holds
    # exactly its share when its first comma follows the row's start and its
    # last precedes the row's end.
    at = np.flatnonzero(codes == 44)
    if at.size != rows * commas:
        return 0
    at = at.reshape(rows, commas)
    if not (np.all(at[1:, 0] > breaks) and np.all(at[:-1, -1] < breaks)):
        return 0
    return rows


def _text(data):
    """``data`` as open()'s default encoding reads it, untranslated, undecodable bytes escaped."""
    return io.TextIOWrapper(io.BytesIO(data), newline="", errors="surrogateescape")


def _rows_text(data, offset):
    """The text of ``data`` after its first ``offset`` characters, less one final LF."""
    text = _text(data).read()
    return text[offset:len(text) - text.endswith("\n")]


def _read_csv(path):
    """A signal CSV's metadata, header and float columns.

    The header must be one of _SIGNAL_LAYOUTS.  Returns (metadata, header,
    columns, line_nos): ``metadata`` holds the ``T`` and ``N`` comments
    found, ``columns`` is None when there is no data row, and ``line_nos``
    holds each data row's 1-based line.  Clean rows after the header (see
    _clean_rows) are split into cells in one go.  Anything else goes on
    line by line without the decoded text, and the first line holding a
    byte that does not decode is reported like any other bad line.
    """
    data = Path(path).read_bytes()
    lines = _text(data)
    metadata = {}
    header = None
    rows = []
    line_nos = []
    offset = 0
    for line_no, raw in enumerate(lines, start=1):
        offset += len(raw)
        if not raw.isascii() and (bad := _UNDECODABLE.search(raw)):
            byte = ord(bad[0]) - 0xDC00  # the escape of byte b is chr(0xDC00 + b)
            raise SignalParseError(f"byte 0x{byte:02x} is not {lines.encoding} text", line_no)
        stripped = raw.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            _parse_metadata(stripped, line_no, metadata)
        elif header is None:
            header = tuple(cell.strip().lower() for cell in stripped.split(","))
            if header not in _SIGNAL_LAYOUTS:
                expected = " or ".join(f"'{','.join(names)}'" for names in _SIGNAL_LAYOUTS)
                raise SignalParseError(f"expected header {expected}, got {stripped!r}", line_no)
            commas = len(header) - 1
            rows_text = _rows_text(data, offset)
            count = _clean_rows(rows_text, commas)
            if count:
                cells = rows_text.replace("\n", ",").split(",")
                line_nos = range(line_no + 1, line_no + 1 + count)
                columns = _parse_columns(cells, line_nos, *_SIGNAL_LAYOUTS[header])
                return metadata, header, columns, line_nos
            rows_text = None  # the loop reads on from ``lines`` alone
        elif stripped.count(",") != commas:
            raise SignalParseError(
                f"expected {len(header)} columns, got {stripped.count(',') + 1}", line_no
            )
        else:
            rows.append(stripped)
            line_nos.append(line_no)
    if not rows:
        return metadata, header, None, line_nos
    # The row strings go before the split: each of them and the cells takes
    # a few times the text's size.
    text, rows = ",".join(rows), None
    columns = _parse_columns(text.split(","), line_nos, *_SIGNAL_LAYOUTS[header])
    return metadata, header, columns, line_nos


def _complex(real, imag) -> np.ndarray:
    """real + i*imag elementwise; unlike ``real + 1j*imag``, keeps -0.0 imaginary parts."""
    out = np.empty(np.size(real), dtype=np.complex128)
    out.real = real
    out.imag = imag
    return out


def read_signal_csv(path) -> Signal:
    """Parse a signal CSV; raises SignalParseError with a line number on failure."""
    metadata, header, columns, line_nos = _read_csv(path)
    if header is None:
        raise SignalParseError("no header row found")
    if columns is None:
        raise SignalParseError("no sample rows found")
    if header == ("index", "re", "im"):
        samples, times = _complex(*columns), None
    else:
        times, values = columns
        samples = _complex(values, 0.0)
    if "N" in metadata and metadata["N"] != len(samples):
        raise SignalParseError(
            f"metadata declares N={metadata['N']} but file holds {len(samples)} rows"
        )
    return _checked_signal(samples, times, metadata.get("T"), lambda position: line_nos[position])


def _json_reals(entries, key) -> np.ndarray:
    if not set(map(type, entries)) <= {int, float}:
        raise SignalParseError(f"'{key}' entries must be numbers", 1)
    try:
        return np.array(entries, dtype=float)
    except OverflowError:
        raise SignalParseError(f"'{key}' holds a number too large for a float", 1) from None


def _json_samples(entries) -> np.ndarray:
    """The samples of a non-empty list of numbers and [re, im] number pairs.

    A list of all numbers or all pairs is converted in one go; any other
    list, or one holding a number too large for a float, is walked entry by
    entry to name the first bad sample.
    """
    kinds = set(map(type, entries))
    try:
        if kinds <= {int, float}:
            return _complex(np.fromiter(entries, float, len(entries)), 0.0)
        if (kinds == {list} and set(map(len, entries)) == {2}
                and set(map(type, chain.from_iterable(entries))) <= {int, float}):
            flat = np.fromiter(chain.from_iterable(entries), float, 2 * len(entries))
            return _complex(flat[0::2], flat[1::2])
    except OverflowError:
        pass
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
                raise SignalParseError(f"sample {position} must be a number or [re, im] pair", 1)
    except OverflowError:
        raise SignalParseError(f"sample {position} is too large for a float", 1) from None
    return samples


def read_signal_json(path) -> Signal:
    """Parse a signal JSON object.

    Accepted shapes: {"T": seconds?, "samples": [[re, im], ...]} with plain
    numbers allowed for real samples, or {"T": seconds?, "time": [...],
    "value": [...]} mirroring the CSV time form.
    """
    try:
        with open(path, "r") as fh:
            payload = json.load(fh)
    except json.JSONDecodeError as exc:
        raise SignalParseError(exc.msg, exc.lineno) from None
    except ValueError as exc:  # bytes that are not text, or an integer past the digit limit
        raise SignalParseError(str(exc), 1) from None
    except RecursionError:  # arrays or objects nested past the interpreter's recursion limit
        raise SignalParseError("JSON nested too deeply", 1) from None
    if not isinstance(payload, dict):
        raise SignalParseError("top-level JSON value must be an object", 1)
    declared = check_duration(payload["T"]) if "T" in payload else None

    if "samples" in payload:
        entries = payload["samples"]
        if not isinstance(entries, list) or not entries:
            raise SignalParseError("'samples' must be a non-empty list", 1)
        return _checked_signal(_json_samples(entries), None, declared)

    if "time" in payload and "value" in payload:
        times = payload["time"]
        values = payload["value"]
        if (
            not isinstance(times, list)
            or not isinstance(values, list)
            or len(times) != len(values)
            or not times
        ):
            raise SignalParseError("'time' and 'value' must be equal-length non-empty lists", 1)
        return _checked_signal(_json_reals(values, "value"), _json_reals(times, "time"), declared)

    raise SignalParseError("JSON object needs either 'samples' or 'time'+'value'", 1)


def read_signal(path) -> Signal:
    """Dispatch on extension: .json parses as JSON, anything else as CSV."""
    if Path(path).suffix.lower() == ".json":
        return read_signal_json(path)
    return read_signal_csv(path)


def write_csv(path, comments, names, columns) -> None:
    """CSV of ``# key=value`` lines from ``comments``, a header of ``names``, then ``columns``.

    Float comment values and every cell are written with ``%.17g``; rows go
    out WRITE_BLOCK_ROWS at a time, one ``%`` over the row template per block.
    """
    template = ",".join(["%.17g"] * len(names)) + "\n"
    with open(path, "w") as fh:
        for key, value in comments.items():
            fh.write(f"# {key}={format(value, '.17g') if isinstance(value, float) else value}\n")
        fh.write(",".join(names) + "\n")
        for start in range(0, len(columns[0]), WRITE_BLOCK_ROWS):
            block = np.column_stack([column[start:start + WRITE_BLOCK_ROWS] for column in columns])
            fh.write((template * len(block)) % tuple(block.ravel().tolist()))


def write_spectrum(spectrum: Spectrum, path, method: str) -> None:
    """Spectrum CSV, by write_csv: metadata comments, then one row per bin.

    The freq column is ``Spectrum.frequencies``, the arithmetic of
    core.bin_frequency, so files and API agree digit for digit.  The
    magnitude column is ``Spectrum.magnitudes``: ``inf`` where a bin's
    magnitude exceeds the largest double.
    """
    bins = spectrum.bins
    write_csv(path, {"N": spectrum.origin_n, "alpha": spectrum.alpha,
                     "T": float(spectrum.duration), "method": method},
              ("m", "freq", "re", "im", "magnitude"),
              (np.arange(bins.size, dtype=float), spectrum.frequencies,
               bins.real, bins.imag, spectrum.magnitudes))
