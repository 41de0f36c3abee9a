"""Shared domain types for density-adjustable Fourier analysis.

A spectrum with density factor alpha = p/q holds M = alpha*N bins spaced
1/(alpha*T) Hz apart, where N is the signal length and T its duration in
seconds; this module owns the rules for all three.  alpha stays an exact
reduced rational, never a float, so "alpha*N is an integer" is decidable.
"""

import math
import re
import sys
from dataclasses import dataclass

import numpy as np


class IncompatibleAlphaError(ValueError):
    """alpha*N is not a positive integer, so no bin grid exists."""


class UnsupportedSizeError(ValueError):
    """The fast transform needs power-of-two sizes; fall back to the naive path."""


#: Most bins (alpha*N) any transform or Spectrum may hold: 2**28 complex
#: bins take 4 GiB, so a larger request is refused before anything is allocated.
MAX_BINS = 1 << 28


class TooManyBinsError(ValueError):
    """alpha*N exceeds MAX_BINS."""


#: What parse_int reads, once stripped.
_INTEGER = re.compile("[+-]?[0-9]+")


def _is_int(value) -> bool:  # N, p and q: an int, not a bool
    return isinstance(value, int) and not isinstance(value, bool)


def parse_int(text: str) -> int:
    """The integer of ``text``: ASCII digits after an optional sign, amid whitespace.

    ValueError otherwise, also where int() alone reads a number: ``1_0`` and
    the digits of other scripts, such as ``\u0662``.
    """
    if not _INTEGER.fullmatch(text.strip()):
        raise ValueError(f"invalid integer {text!r}")
    return int(text)


def parse_float(text: str) -> float:
    """The float of ``text`` as float() reads it, if it is ASCII with no ``_`` once stripped.

    ValueError otherwise, as parse_int refuses ``1_0`` and ``\u0662``.  ``nan``
    and ``inf`` still read, for check_duration to refuse by name.
    """
    stripped = text.strip()
    if not stripped.isascii() or "_" in stripped:
        raise ValueError(f"could not convert string to float: {text!r}")
    return float(stripped)


def is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class DenseFactor:
    """Bin-density factor alpha = p/q as an exact positive rational.

    The stored pair is always reduced (gcd(p, q) == 1).  alpha > 1 packs
    more bins into the same bandwidth than the classical DFT, alpha < 1
    fewer; alpha == 1 recovers the square case.
    """

    p: int
    q: int = 1

    def __post_init__(self):
        if not (_is_int(self.p) and _is_int(self.q)):
            raise ValueError(f"density factor wants integers, got {self.p!r}/{self.q!r}")
        if self.p < 1 or self.q < 1:
            raise ValueError(f"density factor must be positive, got {self.p}/{self.q}")
        g = math.gcd(self.p, self.q)
        object.__setattr__(self, "p", self.p // g)
        object.__setattr__(self, "q", self.q // g)

    @classmethod
    def from_string(cls, text: str) -> "DenseFactor":
        """Parse 'p/q' or a bare integer 'p', each integer by parse_int."""
        parts = text.split("/")
        try:
            numbers = [parse_int(part) for part in parts]
        except ValueError:
            numbers = []
        if not 1 <= len(numbers) <= 2:
            raise ValueError(f"cannot parse density factor from {text!r}")
        return cls(*numbers)

    def __float__(self) -> float:
        return self.p / self.q

    def __str__(self) -> str:
        return f"{self.p}/{self.q}"


def distinct(values, name) -> list:
    """``values`` as a list; ValueError naming ``name`` when one repeats, compared as values."""
    seen = []
    for value in values:
        if value in seen:
            raise ValueError(f"{name} {value} given twice")
        seen.append(value)
    return seen


def validate_pair(n: int, alpha: DenseFactor) -> tuple[int, int]:
    """Check that alpha*N is a positive integer and return (N, M=alpha*N).

    Because alpha is reduced, the product is an integer exactly when q
    divides N, an int (not a bool) >= 1.  M above MAX_BINS raises TooManyBinsError.
    """
    if not (_is_int(n) and n >= 1):
        raise ValueError(f"signal length must be an integer >= 1, got {n!r}")
    numerator = n * alpha.p
    if numerator % alpha.q != 0:
        raise IncompatibleAlphaError(f"density factor {alpha} is incompatible with N={n}: "
                                     f"alpha*N = {numerator}/{alpha.q} is not an integer")
    m = numerator // alpha.q
    if m > MAX_BINS:
        raise TooManyBinsError(f"alpha*N = {m} bins for N={n} "
                               f"exceeds the limit of {MAX_BINS} bins")
    return n, m


def check_duration(value) -> float:
    """T as a float: an int (not a bool) or a float, 0 < T <= sys.float_info.max."""
    if (_is_int(value) or isinstance(value, float)) and 0 < value <= sys.float_info.max:
        return float(value)
    raise ValueError(f"duration T must be a positive finite number, got {value!r}")


def bin_frequency(m: int, alpha: DenseFactor, duration: float = 1.0) -> float:
    """Frequency in Hz of bin m: m / (alpha * T)."""
    if m < 0:
        raise IndexError(f"bin index must be >= 0, got {m}")
    return (m * alpha.q) / (alpha.p * check_duration(duration))


@dataclass(frozen=True, eq=False)
class Signal:
    """Uniformly sampled complex signal of duration ``duration`` seconds.

    Samples are copied to a read-only complex128 array; the sample interval
    is duration/N.  When ingested data carries no timing metadata the
    duration defaults to one second.
    """

    samples: np.ndarray
    duration: float = 1.0

    def __post_init__(self):
        arr = np.array(self.samples, dtype=np.complex128)
        if arr.ndim != 1:
            raise ValueError(f"signal must be one-dimensional, got shape {arr.shape}")
        if arr.size < 1:
            raise ValueError("signal must hold at least one sample")
        object.__setattr__(self, "duration", check_duration(self.duration))
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)

    def __len__(self) -> int:
        return self.samples.size

    @property
    def dt(self) -> float:
        return self.duration / self.samples.size


@dataclass(frozen=True, eq=False)
class Spectrum:
    """M = alpha*N complex bins over [0, N/T) Hz at spacing 1/(alpha*T).

    ``bins`` is a read-only complex128 array.  ``Spectrum(bins, ...)``
    copies its input, so a caller's array is never frozen.  The transforms
    build theirs with ``Spectrum._adopt``, which takes over the fresh array
    they made instead of copying it.
    """

    bins: np.ndarray
    origin_n: int
    alpha: DenseFactor
    duration: float = 1.0

    def __post_init__(self):
        self._take(np.array(self.bins, dtype=np.complex128))

    @classmethod
    def _adopt(cls, bins: np.ndarray, origin_n: int, alpha: DenseFactor,
               duration: float = 1.0) -> "Spectrum":
        """A Spectrum holding ``bins`` itself, marked read-only, not a copy.

        ``bins`` must be a complex128 array that no one else writes to.
        """
        spectrum = object.__new__(cls)
        object.__setattr__(spectrum, "origin_n", origin_n)
        object.__setattr__(spectrum, "alpha", alpha)
        object.__setattr__(spectrum, "duration", duration)
        spectrum._take(bins)
        return spectrum

    def _take(self, arr):
        """Check ``arr`` against the metadata, freeze it and store it as the bins."""
        _, m = validate_pair(self.origin_n, self.alpha)
        if arr.dtype != np.complex128 or arr.ndim != 1 or arr.size != m:
            raise ValueError(
                f"expected {m} complex128 bins for N={self.origin_n}, alpha={self.alpha}, "
                f"got {arr.dtype} of shape {arr.shape}"
            )
        object.__setattr__(self, "duration", check_duration(self.duration))
        arr.setflags(write=False)
        object.__setattr__(self, "bins", arr)

    @property
    def m(self) -> int:
        return self.bins.size

    @property
    def magnitudes(self) -> np.ndarray:
        """np.hypot(re, im) per bin, bitwise Python's abs(); inf, with no warning, on overflow."""
        with np.errstate(over="ignore"):
            return np.hypot(self.bins.real, self.bins.imag)

    @property
    def frequencies(self) -> np.ndarray:
        # Same arithmetic as bin_frequency, elementwise, so the two agree exactly.
        return (np.arange(self.bins.size) * self.alpha.q) / (self.alpha.p * self.duration)
