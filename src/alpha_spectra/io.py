"""File formats of the command line: signals in, spectra out.

Signals come in as CSV (columns ``index,re,im`` or ``time,value``; a ``#``
comment line may carry ``T=<seconds>`` or ``N=<count>`` metadata, and any
other comment is ignored) or as JSON.  Spectra go out as CSV with
``# N=``, ``# alpha=p/q``, ``# T=`` and ``# method=`` metadata followed by
``m,freq,re,im,magnitude`` rows.  Each cell is the shortest decimal that
reads back as the same double, so a file round-trips its values exactly.

Both readers read a file's bytes once and decode them under one rule,
``_text``: CRLF and CR line ends read as LF, and the first line holding a
byte that does not decode is a bad line (``_check_decoded``), never a
character inside a string.

The CSV reader works on whole columns.  It scans the decoded lines up to
the header for metadata.  The rest of the text then goes, as UTF-8 bytes
(an ``io.StringIO`` would hold it at 4 bytes per character), to
``np.loadtxt``: numpy's C tokenizer parses the rows without a Python
object per cell, each float with the parser under ``float()`` and the
index as an int64 only where ``int()`` reads the same number.  Its columns
stand only for rows with no fault: when it reads every line as a row, the
index as 0, 1, 2, ... and every value as finite.  Otherwise -- a comment or
blank line among the rows, a bad cell, a value that is not finite, or what
only ``int()`` and ``float()`` accept (``1_0``, Arabic-Indic digits) --
the same loop reads on after the header, line by line, and parses each
row where it reads it, its cells with ``int()`` and ``float()``.  So the
first bad line is the error, whatever is wrong with it: a column count, an
index, a cell, a value that is not finite (a row's time before its value),
a byte that does not decode or a metadata comment.  A
``# N=`` count reads as an integer flag does (``core.parse_int``).  A JSON
sample list of all numbers or all number pairs is converted in one
``np.fromiter``; any other list is walked entry by entry, to name the
first bad sample.  Both shortcuts give the values, bit for bit, and the
errors of the loops they skip.

The JSON reader parses the file's bytes with ``orjson`` alone, which reads
RFC 8259 JSON: UTF-8 with no byte order mark, no ``NaN`` or ``Infinity``
literal, no lone surrogate escape and no number past the largest double,
even in a key the reader ignores; decimals round as ``float()`` rounds
them.  A refused file's error is the line of its first byte that does not
decode, else ``orjson``'s message at its line.  A document nested more
than _JSON_MAX_DEPTH arrays and objects deep is refused before it is
parsed, as ``orjson`` would overflow the stack on it; brackets inside
strings do not count.

write_csv writes the spectrum and demo CSVs: ``# key=value`` comments, a
header, then rows that ``orjson`` formats in C, WRITE_BLOCK_ROWS at a time,
each block one flat dump of its cells whose every width-th comma becomes an
LF, ``inf``, ``-inf`` and ``nan`` spelled as Python spells them.  A
spectrum's ``freq`` and ``magnitude`` are ``Spectrum.frequencies`` and
``Spectrum.magnitudes``, bitwise ``bin_frequency`` and Python's ``abs``.
"""

import contextlib
import io
import math
import os
import re
import sys
import warnings
from array import array
from itertools import chain
from pathlib import Path

import numpy as np
import orjson

from .core import Signal, Spectrum, check_duration, parse_float, parse_int

#: Relative tolerance when checking that a time column is uniformly spaced.
TIME_UNIFORMITY_RTOL = 1e-9

#: Rows a writer formats per write: bounds the text held in memory.
WRITE_BLOCK_ROWS = 4096

#: Accepted CSV headers, each with the label of its index column (None when
#: there is none) and the positions of the float columns the reader parses.
_SIGNAL_LAYOUTS = {("index", "re", "im"): ("index", (1, 2)), ("time", "value"): (None, (0, 1))}

#: What a byte that does not decode becomes in ``_text``.
_UNDECODABLE = re.compile("[\udc80-\udcff]")

#: Deepest nesting of arrays and objects a JSON signal may hold; a JSON string,
#: whose escapes may hold a quote; the ``bytes.translate`` arguments that keep
#: only the brackets of a text, each as its int8 depth step: 1 opens, 0xff closes.
_JSON_MAX_DEPTH = 512
_JSON_STRING = re.compile(rb'"[^"\\]*(?:\\.[^"\\]*)*"', re.DOTALL)
_BRACKET_STEPS = bytes.maketrans(b"[{]}", b"\1\1\xff\xff"), bytes(set(range(256)) - set(b"[{]}"))


class SignalParseError(ValueError):
    """Malformed signal file; ``line`` is 1-based when known."""

    def __init__(self, message, line=None):
        self.line = line
        where = f"line {line}: " if line is not None else ""
        super().__init__(f"{where}{message}")


def _duration(value, line) -> float:  # core.check_duration, raising SignalParseError
    try:
        return check_duration(value)
    except ValueError as exc:
        raise SignalParseError(str(exc), line) from None


def _checked_signal(samples, times, declared, line=1) -> Signal:
    """The checks every signal reader shares, then the Signal.

    Times must be uniformly spaced; each reader has refused a value that is
    not finite already.  The duration is the declared T when there is one
    (``declared`` is None otherwise), else N times the time step when there
    is a time column, else one second.  Errors name the 1-based ``line``.
    """
    duration = 1.0
    if times is not None and times.size >= 2:
        # Times whose span overflows a double give an infinite or NaN step.
        with np.errstate(over="ignore", invalid="ignore"):
            steps = np.diff(times)
            mean_step = float(np.mean(steps))
            uniform = mean_step > 0 and (
                np.max(np.abs(steps - mean_step)) <= TIME_UNIFORMITY_RTOL * mean_step)
        duration = mean_step * times.size
        if declared is None and not np.isfinite(mean_step):
            _duration(duration, line)  # raises: the time column's duration is not finite
        if not uniform:
            raise SignalParseError("time values are not uniformly spaced", line)
    if declared is not None:
        duration = declared
    return Signal(samples, _duration(duration, line))


def _parse_metadata(line_text, line_no, metadata):
    """Record a ``# T=`` or ``# N=`` comment in ``metadata``; ignore any other.

    The comment is judged where it is read, so a T that is not a positive
    finite number (``parse_float``, ``check_duration``) or an N that is not
    an integer (``parse_int``) is a bad line ``line_no``.
    """
    body = line_text.lstrip("#").strip()
    if "=" in body:
        key, _, raw = body.partition("=")
        key = key.strip()
        if key == "T":
            try:
                value = parse_float(raw)
            except ValueError:
                raise SignalParseError(f"expected a number, got {raw.strip()!r}", line_no) from None
            metadata["T"] = _duration(value, line_no)
        elif key == "N":
            try:
                metadata["N"] = parse_int(raw)
            except ValueError:
                raise SignalParseError(f"expected an integer N, got {raw.strip()!r}", line_no) from None


def _numpy_columns(rows, count, header):
    """The float columns of ``rows``, the UTF-8 text after the ``header``, or None.

    numpy's C tokenizer strips each cell as the per-line loop does and reads
    it with the parser under float(), or as an int64 that int() reads the
    same.  None when it refuses a row (``#`` and quotes stay cell text, and a
    warning, an older numpy reading an integer through a float, counts),
    skips one (an empty line: fewer than ``count`` rows), reads an index
    other than 0, 1, 2, ... or a value that is not finite: its columns stand
    only for rows with no fault.
    """
    index_label, positions = _SIGNAL_LAYOUTS[header]
    dtype = [(name, np.int64 if name == index_label else float) for name in header]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            table = np.loadtxt(io.BytesIO(rows), delimiter=",", comments=None, ndmin=1,
                               dtype=dtype, encoding="utf-8")
        except (ValueError, Warning):
            return None
    columns = [table[header[k]] for k in positions]
    if len(table) != count or (
        index_label is not None and not np.array_equal(table[index_label], np.arange(count))
    ) or not all(np.isfinite(column).all() for column in columns):
        return None
    return columns


def _text(data):
    """``data`` as open() reads it by default, CRLF and CR as LF, undecodable bytes escaped."""
    return io.TextIOWrapper(io.BytesIO(data), errors="surrogateescape")


def _check_decoded(text, encoding, line=1):
    """Refuse the first byte that ``_text`` did not decode in ``text``, which starts at ``line``."""
    if not text.isascii() and (bad := _UNDECODABLE.search(text)):
        byte = ord(bad[0]) - 0xDC00  # the escape of byte b is chr(0xDC00 + b)
        raise SignalParseError(f"byte 0x{byte:02x} is not {encoding} text",
                               line + text.count("\n", 0, bad.start()))


def _rows_bytes(data, offset):
    """The text of ``data`` after its first ``offset`` characters, less its final LFs, in UTF-8.

    A byte that does not decode comes back as itself, for numpy to refuse.
    """
    return _text(data).read()[offset:].rstrip("\n").encode(errors="surrogateescape")


def _complex(real, imag) -> np.ndarray:
    """real + i*imag elementwise; unlike ``real + 1j*imag``, keeps -0.0 imaginary parts."""
    out = np.empty(np.size(real), dtype=np.complex128)
    out.real = real
    out.imag = imag
    return out


def read_signal_csv(path) -> Signal:
    """Parse a signal CSV; raises SignalParseError with a line number on failure.

    At a header of _SIGNAL_LAYOUTS, numpy reads all the rows after it in one
    pass (_numpy_columns).  When it cannot, the loop reads on and parses each
    row where it reads it, so the first bad line is the error (see above).
    """
    data = Path(path).read_bytes()
    lines = _text(data)
    metadata = {}
    header = None
    offset = 0
    for line_no, raw in enumerate(lines, start=1):
        offset += len(raw)
        _check_decoded(raw, lines.encoding, line_no)
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
            rest = _rows_bytes(data, offset)
            count = rest.count(b"\n") + 1
            columns = _numpy_columns(rest, count, header)
            if columns is not None:
                last_row = line_no + count
                break
            rest = None  # the loop reads on from ``lines`` alone
            index_label, positions = _SIGNAL_LAYOUTS[header]
            columns = [array("d") for _ in positions]
        else:
            # Stripped: float() rejects some characters that strip() removes.
            cells = [cell.strip() for cell in stripped.split(",")]
            if len(cells) != len(header):
                raise SignalParseError(f"expected {len(header)} columns, got {len(cells)}", line_no)
            row = len(columns[0])
            if index_label is not None:
                try:
                    index = int(cells[0])
                except ValueError:
                    raise SignalParseError(
                        f"expected an integer {index_label}, got {cells[0]!r}", line_no
                    ) from None
                if index != row:
                    raise SignalParseError(f"{index_label} {index} out of order (expected {row})",
                                           line_no)
            for column, k in zip(columns, positions):
                try:
                    value = float(cells[k])
                except ValueError:
                    raise SignalParseError(f"expected a number, got {cells[k]!r}", line_no) from None
                if not math.isfinite(value):
                    what = "time" if header[k] == "time" else "sample"
                    raise SignalParseError(f"{what} {row} is not finite", line_no)
                column.append(value)
            last_row = line_no
    else:
        if header is None:
            raise SignalParseError("no header row found")
        if not columns[0]:
            raise SignalParseError("no sample rows found")
        columns = [np.frombuffer(column) for column in columns]
    data = lines = rest = None  # the file's bytes and text go before the samples are built
    if header == ("index", "re", "im"):
        samples, times = _complex(*columns), None
    else:
        times, values = columns
        samples = _complex(values, 0.0)
    if "N" in metadata and metadata["N"] != len(samples):
        raise SignalParseError(
            f"metadata declares N={metadata['N']} but file holds {len(samples)} rows"
        )
    return _checked_signal(samples, times, metadata.get("T"), last_row)


def _json_reals(entries, key) -> np.ndarray:
    if not set(map(type, entries)) <= {int, float}:
        raise SignalParseError(f"'{key}' entries must be numbers", 1)
    return np.array(entries, dtype=float)


def _json_samples(entries) -> np.ndarray:
    """The samples of a non-empty list of numbers and [re, im] number pairs.

    A list of all numbers or all pairs is converted in one go; any other
    list is walked entry by entry to name the first bad sample.
    """
    kinds = set(map(type, entries))
    if kinds <= {int, float}:
        return _complex(np.fromiter(entries, float, len(entries)), 0.0)
    if (kinds == {list} and set(map(len, entries)) == {2}
            and set(map(type, chain.from_iterable(entries))) <= {int, float}):
        flat = np.fromiter(chain.from_iterable(entries), float, 2 * len(entries))
        return _complex(flat[0::2], flat[1::2])
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
    return samples


def _json_signal(payload) -> Signal:
    """The signal of a decoded JSON document; SignalParseError at line 1 when it has none."""
    if not isinstance(payload, dict):
        raise SignalParseError("top-level JSON value must be an object", 1)
    declared = _duration(payload["T"], 1) if "T" in payload else None

    if "samples" in payload:
        entries = payload["samples"]
        if not isinstance(entries, list) or not entries:
            raise SignalParseError("'samples' must be a non-empty list", 1)
        return _checked_signal(_json_samples(entries), None, declared)

    if "time" in payload and "value" in payload:
        times = payload["time"]
        values = payload["value"]
        if not (isinstance(times, list) and isinstance(values, list)
                and len(times) == len(values) and times):
            raise SignalParseError("'time' and 'value' must be equal-length non-empty lists", 1)
        return _checked_signal(_json_reals(values, "value"), _json_reals(times, "time"), declared)

    raise SignalParseError("JSON object needs either 'samples' or 'time'+'value'", 1)


def read_signal_json(path) -> Signal:
    """Parse a signal JSON object.

    Accepted shapes: {"T": seconds?, "samples": [[re, im], ...]} with plain
    numbers allowed for real samples, or {"T": seconds?, "time": [...],
    "value": [...]} mirroring the CSV time form.  ``orjson`` parses the
    file's bytes once the brackets outside its strings show them no deeper
    than _JSON_MAX_DEPTH (see the module docstring).
    """
    data = Path(path).read_bytes()
    try:
        steps = np.frombuffer(_JSON_STRING.sub(b"", data).translate(*_BRACKET_STEPS), np.int8)
        if np.cumsum(steps).max(initial=0) > _JSON_MAX_DEPTH:
            raise orjson.JSONDecodeError("JSON nested too deeply", "", 0)
        payload = orjson.loads(data)
    except orjson.JSONDecodeError as exc:
        lines = _text(data)
        _check_decoded(lines.read(), lines.encoding)
        before = _text(exc.doc[:exc.pos].encode()).read()  # CR and CRLF end a line too
        raise SignalParseError(exc.msg, before.count("\n") + 1) from None
    # orjson reads an integer literal past the largest double as that double.
    if isinstance(payload, dict) and payload.get("T") == sys.float_info.max:
        raise SignalParseError("duration T must be a positive finite number, "
                               "got one that reads as the largest double", 1)
    return _json_signal(payload)


def read_signal(path) -> Signal:
    """Dispatch on extension: .json parses as JSON, anything else as CSV."""
    if Path(path).suffix.lower() == ".json":
        return read_signal_json(path)
    return read_signal_csv(path)


@contextlib.contextmanager
def open_output(path, mode, **kwargs):
    """``open(path, mode, **kwargs)`` for writing, the file removed if the block raises.

    A write that fails part-way (a full disk, say) would otherwise leave a
    truncated file, which may read as a shorter, valid one.  A path that
    ``open`` refuses, such as a directory, is never touched, nor is a
    device such as /dev/null.
    """
    fh = open(path, mode, **kwargs)
    try:
        with fh:
            yield fh
    except BaseException:
        if os.path.isfile(path):
            os.unlink(path)
        raise


def write_csv(path, comments, names, columns) -> None:
    """CSV of ``# key=value`` lines from ``comments``, a header of ``names``, then ``columns``.

    Float comment values are written with ``.17g``, other comment values with
    str().  The cells go out WRITE_BLOCK_ROWS rows at a time, each block
    through one ``orjson.dumps`` of its cells in C order: the shortest
    decimal that reads back as the same double (``0.0``, ``1e16``,
    ``5e-324``).  No cell holds a comma, so an LF over every
    ``len(names)``-th comma of that one flat list ends the rows.  orjson
    writes ``null`` for every non-finite cell, so a block that holds one
    puts back, in C order, the ``.17g`` spellings ``inf``, ``-inf`` and
    ``nan``.  A write that raises removes the file (``open_output``).
    """
    with open_output(path, "wb") as fh:
        for key, value in comments.items():
            fh.write(f"# {key}={format(value, '.17g') if isinstance(value, float) else value}\n"
                     .encode())
        fh.write(f"{','.join(names)}\n".encode())
        width = len(names)
        for start in range(0, len(columns[0]), WRITE_BLOCK_ROWS):
            block = np.column_stack([column[start:start + WRITE_BLOCK_ROWS] for column in columns])
            cells = block.ravel()
            body = bytearray(orjson.dumps(cells, option=orjson.OPT_SERIALIZE_NUMPY))
            text = np.frombuffer(body, np.uint8)
            text[np.flatnonzero(text == ord(","))[width - 1::width]] = ord("\n")
            spellings = [format(value, ".17g").encode() for value in cells[~np.isfinite(cells)]]
            if spellings:  # no finite cell contains "null"
                body = b"".join(chain.from_iterable(zip(body.split(b"null"), spellings + [b""])))
            fh.write(memoryview(body)[1:-1])  # the rows, between the brackets
            fh.write(b"\n")


def write_spectrum(spectrum: Spectrum, path, method: str) -> None:
    """Spectrum CSV, by write_csv: metadata comments, then one row per bin.

    The freq column is ``Spectrum.frequencies``, the arithmetic of
    core.bin_frequency, so files and API agree digit for digit.  The
    magnitude column is ``Spectrum.magnitudes``: ``inf`` where a bin's
    magnitude exceeds the largest double.
    """
    bins = spectrum.bins
    write_csv(path, {"N": spectrum.origin_n, "alpha": spectrum.alpha,
                     "T": spectrum.duration, "method": method},
              ("m", "freq", "re", "im", "magnitude"),
              (np.arange(bins.size, dtype=float), spectrum.frequencies,
               bins.real, bins.imag, spectrum.magnitudes))
