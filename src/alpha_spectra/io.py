"""Signal and spectrum file formats used by the command line.

Signals come in as CSV (columns ``index,re,im`` or ``time,value``; ``#``
comment lines may carry ``T=<seconds>`` / ``N=<count>`` metadata) or as
JSON.  Spectra go out as CSV with ``# N=", "# alpha=p/q``, ``# T=`` and
``# method=`` metadata followed by ``m,freq,re,im,magnitude`` rows.  Floats
are rendered with 17 significant digits, which round-trips doubles exactly:
parsing an emitted file and re-emitting it reproduces the bytes.

The CSV paths work on whole columns.  A reader makes one pass over the
lines for metadata, the header and the column count, then parses each
number column with numpy, which applies Python's ``float`` to every cell;
only when numpy rejects a column are the rows walked cell by cell, to name
the first bad cell and its line.  The spectrum writer takes ``freq`` from
``Spectrum.frequencies`` and ``magnitude`` from ``np.hypot``, bitwise the
values of ``bin_frequency`` and of ``abs`` of each bin, and the writers
format and write their rows WRITE_BLOCK_ROWS at a time.
"""

import json
import sys
from pathlib import Path

import numpy as np

from .core import DenseFactor, Signal, Spectrum

#: Relative tolerance when checking that a time column is uniformly spaced.
TIME_UNIFORMITY_RTOL = 1e-9

#: Rows a writer formats per write: bounds the text held in memory.
WRITE_BLOCK_ROWS = 4096

#: Accepted CSV headers, each with the label of its index column (None when
#: there is none) and the positions of the float columns the reader returns.
_SIGNAL_LAYOUTS = {("index", "re", "im"): ("index", (1, 2)), ("time", "value"): (None, (0, 1))}
_SPECTRUM_LAYOUTS = {("m", "freq", "re", "im", "magnitude"): ("bin index", (2, 3))}


class SignalParseError(ValueError):
    """Malformed signal or spectrum file; ``line`` is 1-based when known."""

    def __init__(self, message, line=None):
        self.line = line
        where = f"line {line}: " if line is not None else ""
        super().__init__(f"{where}{message}")


def _fmt(value: float) -> str:
    return format(value, ".17g")


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
        elif key == "alpha":
            try:
                metadata["alpha"] = DenseFactor.from_string(raw.strip())
            except ValueError as exc:
                raise SignalParseError(str(exc), line_no) from None
        elif key == "method":
            metadata["method"] = raw.strip()


def _parse_columns(rows, line_nos, index_label, positions) -> list:
    """The float columns at ``positions`` of a CSV's data lines, as arrays.

    ``rows`` are stripped lines with equal comma counts and ``line_nos``
    their 1-based line numbers.  With an ``index_label``, column 0 must read
    0, 1, 2, ... as integers.  A malformed file raises the error of its
    first bad row, the row's cells checked from the left.
    """
    width = rows[0].count(",") + 1
    cells = ",".join(rows).split(",")
    try:
        if index_label is None or cells[::width] == list(map(str, range(len(rows)))):
            return [np.array(cells[k::width], dtype=float) for k in positions]
    except ValueError:  # some cell is not a number to Python's float
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


def _read_csv(path, layouts):
    """One pass over a CSV's lines, then its float columns.

    ``layouts`` maps each accepted lower-case header to its index label and
    float column positions (see _SIGNAL_LAYOUTS).  Returns (metadata,
    header, columns, line_nos): ``columns`` is None when there is no data
    row, and ``line_nos`` holds each data row's 1-based line.
    """
    metadata = {}
    header = None
    rows = []
    line_nos = []
    with open(path, "r", newline="") as fh:
        for line_no, raw in enumerate(fh, start=1):
            text = raw.strip()
            if not text:
                continue
            if text.startswith("#"):
                _parse_metadata(text, line_no, metadata)
            elif header is None:
                header = tuple(cell.strip().lower() for cell in text.split(","))
                if header not in layouts:
                    expected = " or ".join(f"'{','.join(names)}'" for names in layouts)
                    raise SignalParseError(f"expected header {expected}, got {text!r}", line_no)
                commas = len(header) - 1
            elif text.count(",") != commas:
                raise SignalParseError(
                    f"expected {len(header)} columns, got {text.count(',') + 1}", line_no
                )
            else:
                rows.append(text)
                line_nos.append(line_no)
    columns = _parse_columns(rows, line_nos, *layouts[header]) if rows else None
    return metadata, header, columns, line_nos


def _complex(re, im) -> np.ndarray:
    """re + i*im elementwise; unlike ``re + 1j*im``, keeps -0.0 imaginary parts."""
    out = np.empty(np.size(re), dtype=np.complex128)
    out.real = re
    out.imag = im
    return out


def read_signal_csv(path) -> Signal:
    """Parse a signal CSV; raises SignalParseError with a line number on failure."""
    metadata, header, columns, line_nos = _read_csv(path, _SIGNAL_LAYOUTS)
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
    if not all(type(entry) in (int, float) for entry in entries):
        raise SignalParseError(f"'{key}' entries must be numbers", 1)
    try:
        return np.array(entries, dtype=float)
    except OverflowError:
        raise SignalParseError(f"'{key}' holds a number too large for a float", 1) from None


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
    if not isinstance(payload, dict):
        raise SignalParseError("top-level JSON value must be an object", 1)
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


def _write_rows(fh, template, columns) -> None:
    """Write one ``template`` line per row of the equal-length ``columns``.

    Rows are formatted WRITE_BLOCK_ROWS at a time, each block with a single
    ``%`` over the template repeated once per row.
    """
    for start in range(0, len(columns[0]), WRITE_BLOCK_ROWS):
        block = np.column_stack([column[start:start + WRITE_BLOCK_ROWS] for column in columns])
        fh.write((template * len(block)) % tuple(block.ravel().tolist()))


def write_spectrum(spectrum: Spectrum, path, method: str) -> None:
    """Spectrum CSV: metadata comments, then one row per bin.

    The freq column is ``Spectrum.frequencies``, the arithmetic of
    core.bin_frequency, so files and API agree digit for digit.  The
    magnitude column is ``np.hypot(re, im)``: bitwise ``abs`` of each bin,
    and ``inf`` where that exceeds the largest double.  Rows are written in
    blocks of WRITE_BLOCK_ROWS.
    """
    bins = spectrum.bins
    with np.errstate(over="ignore"):  # an overflowing magnitude is written as inf
        magnitude = np.hypot(bins.real, bins.imag)
    with open(path, "w") as fh:
        fh.write(
            f"# N={spectrum.origin_n}\n# alpha={spectrum.alpha.p}/{spectrum.alpha.q}\n"
            f"# T={_fmt(spectrum.duration)}\n# method={method}\nm,freq,re,im,magnitude\n"
        )
        # %d of a float index is exact: bin counts stay far below 2**53.
        _write_rows(fh, "%d,%.17g,%.17g,%.17g,%.17g\n",
                    (np.arange(bins.size, dtype=float), spectrum.frequencies,
                     bins.real, bins.imag, magnitude))


def read_spectrum(path) -> tuple[Spectrum, str]:
    """Parse a spectrum CSV back into (Spectrum, method).

    Bins must be finite and T a positive finite number, as in the signal
    readers; every failure is a SignalParseError.
    """
    metadata, _, columns, line_nos = _read_csv(path, _SPECTRUM_LAYOUTS)
    for key in ("N", "alpha", "T"):
        if key not in metadata:
            raise SignalParseError(f"missing '# {key}=' metadata")
    if columns is None:
        raise SignalParseError("no spectrum rows found")
    bins = _complex(*columns)
    bad = np.flatnonzero(~np.isfinite(bins))
    if bad.size:
        raise SignalParseError(f"bin {bad[0]} is not finite", line_nos[bad[0]])
    duration = check_duration(metadata["T"])
    try:
        spectrum = Spectrum(bins, metadata["N"], metadata["alpha"], duration)
    except ValueError as exc:  # N, alpha and the bin count do not fit together
        raise SignalParseError(str(exc)) from None
    return spectrum, metadata.get("method", "unknown")


def write_signal_csv(signal: Signal, path) -> None:
    """Signal CSV in the index,re,im form with a T metadata comment."""
    samples = signal.samples
    with open(path, "w") as fh:
        fh.write(f"# T={_fmt(signal.duration)}\n# N={len(signal)}\nindex,re,im\n")
        _write_rows(fh, "%d,%.17g,%.17g\n",
                    (np.arange(samples.size, dtype=float), samples.real, samples.imag))
