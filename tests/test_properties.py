"""Property-based tests: the transform's algebra and the signal readers' boundary.

The algebra is checked on the fast path over power-of-two N <= 1024 and
alpha in {1/8, ..., 8}, to a relative tolerance of 1e-10:

* linearity: X(a*x + b*y) = a*X(x) + b*X(y);
* modulation: multiplying x_n by exp(+2j*pi*j*n/(alpha*N)) rolls X by j bins;
* energy: sum |X|^2 = alpha*N * sum |x|^2 for alpha >= 1 (the columns are
  orthogonal when N <= alpha*N), and alpha*N * sum |fold(x)|^2 for alpha < 1,
  where fold sums the length-alpha*N blocks of x.

The reader fuzz test feeds generated CSV and JSON text to ``read_signal``:
it must return a Signal with finite samples and a positive finite duration,
or raise SignalParseError -- never anything else.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from alpha_spectra import DenseFactor, Signal, plan, transform_samples
from alpha_spectra.io import SignalParseError, read_signal

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
