"""Signal and spectrum file formats used by the command line.

Signals come in as CSV (columns ``index,re,im`` or ``time,value``; ``#``
comment lines may carry ``T=<seconds>`` / ``N=<count>`` metadata) or as
JSON.  Spectra go out as CSV with ``# N=", "# alpha=p/q``, ``# T=`` and
``# method=`` metadata followed by ``m,freq,re,im,magnitude`` rows.  Floats
are rendered with 17 significant digits, which round-trips doubles exactly:
parsing an emitted file and re-emitting it reproduces the bytes.
"""

import json
import sys
from pathlib import Path

import numpy as np

from .core import DenseFactor, Signal, Spectrum, bin_frequency

#: Relative tolerance when checking that a time column is uniformly spaced.
TIME_UNIFORMITY_RTOL = 1e-9


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


def read_signal_csv(path) -> Signal:
    """Parse a signal CSV; raises SignalParseError with a line number on failure."""
    metadata = {}
    header = None
    rows = []
    with open(path, "r", newline="") as fh:
        for line_no, raw in enumerate(fh, start=1):
            text = raw.strip()
            if not text:
                continue
            if text.startswith("#"):
                _parse_metadata(text, line_no, metadata)
                continue
            cells = [cell.strip() for cell in text.split(",")]
            if header is None:
                header = [cell.lower() for cell in cells]
                if header not in (["index", "re", "im"], ["time", "value"]):
                    raise SignalParseError(
                        f"expected header 'index,re,im' or 'time,value', got {text!r}", line_no
                    )
                continue
            if len(cells) != len(header):
                raise SignalParseError(
                    f"expected {len(header)} columns, got {len(cells)}", line_no
                )
            rows.append((line_no, cells))
    if header is None:
        raise SignalParseError("no header row found")
    if not rows:
        raise SignalParseError("no sample rows found")

    samples = np.empty(len(rows), dtype=np.complex128)
    times = None
    if header == ["index", "re", "im"]:
        for position, (line_no, cells) in enumerate(rows):
            try:
                index = int(cells[0])
            except ValueError:
                raise SignalParseError(f"expected an integer index, got {cells[0]!r}", line_no) from None
            if index != position:
                raise SignalParseError(f"index {index} out of order (expected {position})", line_no)
            samples[position] = complex(_parse_float(cells[1], line_no), _parse_float(cells[2], line_no))
    else:
        times = np.empty(len(rows))
        for position, (line_no, cells) in enumerate(rows):
            times[position] = _parse_float(cells[0], line_no)
            samples[position] = _parse_float(cells[1], line_no)
    if "N" in metadata and metadata["N"] != len(samples):
        raise SignalParseError(
            f"metadata declares N={metadata['N']} but file holds {len(samples)} rows"
        )
    return _checked_signal(samples, times, metadata.get("T"), lambda position: rows[position][0])


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


def write_spectrum(spectrum: Spectrum, path, method: str) -> None:
    """Spectrum CSV: metadata comments, then one row per bin.

    The freq column is produced by core.bin_frequency so files and API
    agree digit for digit.
    """
    lines = [
        f"# N={spectrum.origin_n}",
        f"# alpha={spectrum.alpha.p}/{spectrum.alpha.q}",
        f"# T={_fmt(spectrum.duration)}",
        f"# method={method}",
        "m,freq,re,im,magnitude",
    ]
    for m, value in enumerate(spectrum.bins):
        freq = bin_frequency(m, spectrum.alpha, spectrum.duration)
        lines.append(
            f"{m},{_fmt(freq)},{_fmt(value.real)},{_fmt(value.imag)},{_fmt(abs(value))}"
        )
    Path(path).write_text("\n".join(lines) + "\n")


def read_spectrum(path) -> tuple[Spectrum, str]:
    """Parse a spectrum CSV back into (Spectrum, method)."""
    metadata = {}
    header_seen = False
    bins = []
    with open(path, "r") as fh:
        for line_no, raw in enumerate(fh, start=1):
            text = raw.strip()
            if not text:
                continue
            if text.startswith("#"):
                _parse_metadata(text, line_no, metadata)
                continue
            cells = [cell.strip() for cell in text.split(",")]
            if not header_seen:
                if [cell.lower() for cell in cells] != ["m", "freq", "re", "im", "magnitude"]:
                    raise SignalParseError(
                        f"expected header 'm,freq,re,im,magnitude', got {text!r}", line_no
                    )
                header_seen = True
                continue
            if len(cells) != 5:
                raise SignalParseError(f"expected 5 columns, got {len(cells)}", line_no)
            try:
                m = int(cells[0])
            except ValueError:
                raise SignalParseError(f"expected an integer bin index, got {cells[0]!r}", line_no) from None
            if m != len(bins):
                raise SignalParseError(f"bin index {m} out of order (expected {len(bins)})", line_no)
            bins.append(complex(_parse_float(cells[2], line_no), _parse_float(cells[3], line_no)))
    for key in ("N", "alpha", "T"):
        if key not in metadata:
            raise SignalParseError(f"missing '# {key}=' metadata")
    if not header_seen or not bins:
        raise SignalParseError("no spectrum rows found")
    spectrum = Spectrum(np.asarray(bins), metadata["N"], metadata["alpha"], metadata["T"])
    return spectrum, metadata.get("method", "unknown")


def write_signal_csv(signal: Signal, path) -> None:
    """Signal CSV in the index,re,im form with a T metadata comment."""
    lines = [f"# T={_fmt(signal.duration)}", f"# N={len(signal)}", "index,re,im"]
    for index, value in enumerate(signal.samples):
        lines.append(f"{index},{_fmt(value.real)},{_fmt(value.imag)}")
    Path(path).write_text("\n".join(lines) + "\n")
