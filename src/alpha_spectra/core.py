"""Shared domain types for density-adjustable Fourier analysis.

A spectrum with density factor alpha = p/q holds M = alpha*N bins spaced
1/(alpha*T) Hz apart, where N is the signal length and T its duration in
seconds.  alpha is kept as an exact reduced rational throughout so that
"alpha*N is an integer" stays decidable; it is never collapsed to a float.
"""

import math
from dataclasses import dataclass

import numpy as np


class IncompatibleAlphaError(ValueError):
    """alpha*N is not a positive integer, so no bin grid exists."""

    def __init__(self, n, p, q):
        self.n = n
        self.p = p
        self.q = q
        super().__init__(
            f"density factor {p}/{q} is incompatible with N={n}: "
            f"alpha*N = {p * n}/{q} is not an integer"
        )


class UnsupportedSizeError(ValueError):
    """The fast transform needs power-of-two sizes; fall back to the naive path."""


#: Most bins (alpha*N) any transform or Spectrum may hold: 2**28 complex
#: bins take 4 GiB, so a larger request is refused before anything is allocated.
MAX_BINS = 1 << 28


class TooManyBinsError(ValueError):
    """alpha*N exceeds MAX_BINS."""

    def __init__(self, n, m):
        self.n = n
        self.m = m
        super().__init__(f"alpha*N = {m} bins for N={n} exceeds the limit of {MAX_BINS} bins")


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
        if not (isinstance(self.p, int) and isinstance(self.q, int)):
            raise ValueError(f"density factor wants integers, got {self.p!r}/{self.q!r}")
        if self.p < 1 or self.q < 1:
            raise ValueError(f"density factor must be positive, got {self.p}/{self.q}")
        g = math.gcd(self.p, self.q)
        object.__setattr__(self, "p", self.p // g)
        object.__setattr__(self, "q", self.q // g)

    @classmethod
    def from_string(cls, text: str) -> "DenseFactor":
        """Parse 'p/q' or a bare integer 'p'."""
        parts = text.strip().split("/")
        if len(parts) > 2 or not all(part.strip() for part in parts):
            raise ValueError(f"cannot parse density factor from {text!r}")
        try:
            numbers = [int(part) for part in parts]
        except ValueError:
            raise ValueError(f"cannot parse density factor from {text!r}") from None
        return cls(*numbers)

    def __float__(self) -> float:
        return self.p / self.q

    def __str__(self) -> str:
        return f"{self.p}/{self.q}"


def validate_pair(n: int, alpha: DenseFactor) -> tuple[int, int]:
    """Check that alpha*N is a positive integer and return (N, M=alpha*N).

    Because alpha is reduced, the product is an integer exactly when q
    divides N.  M above MAX_BINS raises TooManyBinsError.
    """
    if n < 1:
        raise ValueError(f"signal length must be >= 1, got {n}")
    numerator = n * alpha.p
    if numerator % alpha.q != 0:
        raise IncompatibleAlphaError(n, alpha.p, alpha.q)
    m = numerator // alpha.q
    if m > MAX_BINS:
        raise TooManyBinsError(n, m)
    return n, m


def bin_frequency(m: int, alpha: DenseFactor, duration: float = 1.0) -> float:
    """Frequency in Hz of bin m: m / (alpha * T)."""
    if m < 0:
        raise IndexError(f"bin index must be >= 0, got {m}")
    return (m * alpha.q) / (alpha.p * duration)


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
        if not self.duration > 0:
            raise ValueError(f"duration must be positive, got {self.duration}")
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)

    def __len__(self) -> int:
        return self.samples.size

    @property
    def n(self) -> int:
        return self.samples.size

    @property
    def dt(self) -> float:
        return self.duration / self.samples.size


@dataclass(frozen=True, eq=False)
class Spectrum:
    """M = alpha*N complex bins over [0, N/T) Hz at spacing 1/(alpha*T)."""

    bins: np.ndarray
    origin_n: int
    alpha: DenseFactor
    duration: float = 1.0

    def __post_init__(self):
        arr = np.array(self.bins, dtype=np.complex128)
        _, m = validate_pair(self.origin_n, self.alpha)
        if arr.ndim != 1 or arr.size != m:
            raise ValueError(
                f"expected {m} bins for N={self.origin_n}, alpha={self.alpha}, "
                f"got shape {arr.shape}"
            )
        if not self.duration > 0:
            raise ValueError(f"duration must be positive, got {self.duration}")
        arr.setflags(write=False)
        object.__setattr__(self, "bins", arr)

    def __len__(self) -> int:
        return self.bins.size

    @property
    def m(self) -> int:
        return self.bins.size

    def bin_frequency(self, m: int) -> float:
        if not 0 <= m < self.bins.size:
            raise IndexError(f"bin index {m} outside [0, {self.bins.size})")
        return bin_frequency(m, self.alpha, self.duration)

    @property
    def frequencies(self) -> np.ndarray:
        # Same arithmetic as bin_frequency, elementwise, so the two agree exactly.
        return (np.arange(self.bins.size) * self.alpha.q) / (self.alpha.p * self.duration)
