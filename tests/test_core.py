import ast
import warnings
from pathlib import Path

import numpy as np
import pytest

import alpha_spectra
from alpha_spectra import (
    DenseFactor,
    IncompatibleAlphaError,
    Signal,
    Spectrum,
    TooManyBinsError,
    bin_frequency,
    is_power_of_two,
    plan,
    validate_pair,
)
from alpha_spectra.core import MAX_BINS, parse_int


def test_dense_factor_reduces():
    assert DenseFactor(6, 4) == DenseFactor(3, 2)
    assert DenseFactor(8, 2) == DenseFactor(4, 1)
    assert DenseFactor(5).q == 1
    assert str(DenseFactor(2)) == "2/1"
    assert float(DenseFactor(6, 4)) == 1.5


@pytest.mark.parametrize("p, q", [(0, 1), (1, 0), (-2, 1), (1, -3), (0, 0)])
def test_dense_factor_rejects_nonpositive(p, q):
    with pytest.raises(ValueError):
        DenseFactor(p, q)


def test_dense_factor_rejects_floats():
    with pytest.raises(ValueError):
        DenseFactor(1.5, 1)


@pytest.mark.parametrize("p, q", [(True, 2), (2, True), (True, True), (False, 1)])
def test_dense_factor_rejects_bools(p, q):
    # bool is an int subclass, so True would otherwise read as 1.
    with pytest.raises(ValueError, match="wants integers"):
        DenseFactor(p, q)


@pytest.mark.parametrize("text, expected", [
    ("1/2", DenseFactor(1, 2)),
    ("8", DenseFactor(8)),
    (" 3 / 6 ", DenseFactor(1, 2)),
])
def test_dense_factor_from_string(text, expected):
    assert DenseFactor.from_string(text) == expected


@pytest.mark.parametrize("text", ["", "/", "1/", "/2", "a/b", "1/2/3", "0.5"])
def test_dense_factor_from_string_rejects(text):
    with pytest.raises(ValueError):
        DenseFactor.from_string(text)


@pytest.mark.parametrize("text, expected", [
    ("0", 0), ("+8", 8), ("-3", -3), (" 12\t", 12), ("\u00a08\u2003", 8), ("007", 7),
])
def test_parse_int_reads_ascii_digits(text, expected):
    assert parse_int(text) == expected


@pytest.mark.parametrize("text", [
    "", " ", "+", "-", "1_0", "\u0662", "\uff18", "1 0", "0x10", "1.0", "1e3", "++1",
])
def test_parse_int_refuses_what_only_int_or_nothing_reads(text):
    with pytest.raises(ValueError, match="invalid integer"):
        parse_int(text)


@pytest.mark.parametrize("text", ["1_0/5", "\u0662", "1/\u0662", "6_4", "+/2"])
def test_dense_factor_from_string_reads_ascii_digits_only(text):
    with pytest.raises(ValueError, match="cannot parse density factor"):
        DenseFactor.from_string(text)
    assert DenseFactor.from_string(" +2 / +4 ") == DenseFactor(1, 2)


def test_validate_pair_examples():
    assert validate_pair(6, DenseFactor(4, 3)) == (6, 8)
    assert validate_pair(2, DenseFactor(2)) == (2, 4)
    assert validate_pair(8, DenseFactor(1, 8)) == (8, 1)
    with pytest.raises(IncompatibleAlphaError):
        validate_pair(4, DenseFactor(3, 8))  # 12/8 is not an integer


def test_validate_pair_bin_ceiling():
    # Arithmetic only: no size here is allocated.
    assert validate_pair(1, DenseFactor(MAX_BINS)) == (1, MAX_BINS)
    assert validate_pair(1 << 20, DenseFactor(8)) == (1 << 20, 1 << 23)
    for n, alpha in [(1, DenseFactor(MAX_BINS + 1)), (3, DenseFactor(10 ** 11, 3)),
                     (MAX_BINS * 4, DenseFactor(1))]:
        with pytest.raises(TooManyBinsError) as info:
            validate_pair(n, alpha)
        assert str(info.value) == (f"alpha*N = {n * alpha.p // alpha.q} bins for N={n} "
                                   f"exceeds the limit of {MAX_BINS} bins")
    with pytest.raises(TooManyBinsError):
        plan(1, DenseFactor(10 ** 11))


def test_validate_pair_rejects_bad_length():
    # N is an int, not a bool, as p and q are: a float, a bool or a numpy
    # integer is refused before anything is multiplied.
    for n in (0, -4, 4.5, 4.0, True, np.int64(4), "4"):
        with pytest.raises(ValueError) as info:
            validate_pair(n, DenseFactor(2))
        assert str(info.value) == f"signal length must be an integer >= 1, got {n!r}"


def test_validate_pair_iff_q_divides_n():
    # After reduction, alpha*N is an integer exactly when q divides N.
    rng = np.random.default_rng(11)
    for _ in range(200):
        p = int(rng.integers(1, 30))
        q = int(rng.integers(1, 30))
        n = int(rng.integers(1, 200))
        alpha = DenseFactor(p, q)
        should_pass = n % alpha.q == 0
        if should_pass:
            _, m = validate_pair(n, alpha)
            assert m * alpha.q == n * alpha.p
        else:
            with pytest.raises(IncompatibleAlphaError):
                validate_pair(n, alpha)


def test_incompatible_alpha_error_carries_context():
    with pytest.raises(IncompatibleAlphaError) as info:
        validate_pair(4, DenseFactor(3, 8))
    assert str(info.value) == ("density factor 3/8 is incompatible with N=4: "
                               "alpha*N = 12/8 is not an integer")
    with pytest.raises(IncompatibleAlphaError) as info:
        validate_pair(2, DenseFactor(1, 4))
    assert str(info.value) == ("density factor 1/4 is incompatible with N=2: "
                               "alpha*N = 2/4 is not an integer")


def test_bin_frequency_example():
    assert bin_frequency(5, DenseFactor(1, 2), duration=2.0) == 5.0
    assert bin_frequency(5, DenseFactor(1, 2), duration=np.float64(2.0)) == 5.0
    assert bin_frequency(0, DenseFactor(8)) == 0.0
    with pytest.raises(IndexError):
        bin_frequency(-1, DenseFactor(1))


def test_is_power_of_two():
    assert [n for n in range(1, 20) if is_power_of_two(n)] == [1, 2, 4, 8, 16]
    assert not is_power_of_two(0)


def test_signal_copies_and_locks():
    raw = np.ones(4, dtype=complex)
    signal = Signal(raw)
    raw[0] = 99
    assert signal.samples[0] == 1
    with pytest.raises(ValueError):
        signal.samples[0] = 5  # read-only
    assert len(signal) == 4
    assert signal.dt == 0.25


def test_signal_validation():
    with pytest.raises(ValueError):
        Signal(np.zeros(0))
    with pytest.raises(ValueError):
        Signal(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        Signal([1.0], duration=0.0)


@pytest.mark.parametrize("duration", [0.0, -1.0, float("inf"), float("nan"), True,
                                      pytest.param(10 ** 400, id="10**400"), "2", None])
def test_signal_and_spectrum_need_a_positive_finite_duration(duration):
    # T = inf would put every frequency at 0.0 Hz, silently; an int past the
    # largest double would overflow in dt or the frequencies.
    for make in (lambda: Signal(np.ones(8), duration),
                 lambda: Spectrum(np.zeros(8), 8, DenseFactor(1), duration),
                 lambda: Spectrum._adopt(np.zeros(8, dtype=np.complex128), 8, DenseFactor(1),
                                         duration),
                 lambda: bin_frequency(1, DenseFactor(1), duration)):
        with pytest.raises(ValueError) as info:
            make()
        assert str(info.value) == f"duration T must be a positive finite number, got {duration!r}"


@pytest.mark.parametrize("duration", [2, 2.0, np.float64(2.0)])
def test_signal_and_spectrum_store_the_duration_as_a_float(duration):
    for value in (Signal(np.ones(8), duration), Spectrum(np.zeros(8), 8, DenseFactor(1), duration)):
        assert type(value.duration) is float and value.duration == 2.0


def test_spectrum_bin_count_must_match():
    spectrum = Spectrum(np.zeros(8), 4, DenseFactor(2))
    assert spectrum.m == 8
    with pytest.raises(ValueError):
        Spectrum(np.zeros(7), 4, DenseFactor(2))
    with pytest.raises(IncompatibleAlphaError):
        Spectrum(np.zeros(6), 4, DenseFactor(3, 8))


def test_spectrum_copies_a_callers_array():
    arr = np.arange(8, dtype=np.complex128)
    spectrum = Spectrum(arr, 4, DenseFactor(2))
    assert arr.flags.writeable
    assert not np.shares_memory(arr, spectrum.bins)
    assert not spectrum.bins.flags.writeable
    arr[0] = 5  # the caller's array stays theirs
    assert spectrum.bins[0] == 0


def test_adopt_takes_over_a_fresh_array():
    arr = np.arange(8, dtype=np.complex128)
    spectrum = Spectrum._adopt(arr, 4, DenseFactor(2), 0.5)
    assert spectrum.bins is arr
    assert not arr.flags.writeable
    assert (spectrum.origin_n, spectrum.alpha, spectrum.duration) == (4, DenseFactor(2), 0.5)


@pytest.mark.parametrize("shape", [(7,), (2, 4), ()], ids=str)
def test_adopt_rejects_a_wrong_shape_like_the_public_constructor(shape):
    bins = np.zeros(shape, dtype=np.complex128)
    with pytest.raises(ValueError) as public:
        Spectrum(bins, 4, DenseFactor(2))
    with pytest.raises(ValueError) as adopted:
        Spectrum._adopt(bins, 4, DenseFactor(2))
    assert str(adopted.value) == str(public.value)
    assert bins.flags.writeable


@pytest.mark.parametrize("dtype", [np.float64, np.complex64, np.int64])
def test_adopt_rejects_another_dtype(dtype):
    # The public constructor converts these in its copy; nothing to adopt.
    bins = np.zeros(8, dtype=dtype)
    with pytest.raises(ValueError, match="expected 8 complex128 bins"):
        Spectrum._adopt(bins, 4, DenseFactor(2))
    assert bins.flags.writeable
    assert Spectrum(bins, 4, DenseFactor(2)).bins.dtype == np.complex128


def test_adopt_checks_the_pair_and_duration_like_the_public_constructor():
    with pytest.raises(IncompatibleAlphaError):
        Spectrum._adopt(np.zeros(6, dtype=np.complex128), 4, DenseFactor(3, 8))
    with pytest.raises(ValueError, match="duration T must be a positive finite number"):
        Spectrum._adopt(np.zeros(8, dtype=np.complex128), 4, DenseFactor(2), 0.0)


def test_spectrum_frequencies_match_scalar_map():
    spectrum = Spectrum(np.zeros(12), 8, DenseFactor(3, 2), duration=2.5)
    freqs = spectrum.frequencies
    assert freqs.shape == (12,)
    for m in range(12):
        # identical arithmetic, identical bits
        assert freqs[m] == bin_frequency(m, spectrum.alpha, spectrum.duration)
    assert np.all(np.diff(freqs) > 0)


def test_magnitudes_overflow_to_inf_without_a_warning():
    # |1e308 + 1e308j| = 1.41e308 is still a double; |1.5e308 + 1.5e308j| is not.
    spectrum = Spectrum(np.array([1.5e308 + 1.5e308j, -3 + 4j]), 2, DenseFactor(1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        magnitudes = spectrum.magnitudes
    assert magnitudes.tolist() == [np.inf, 5.0]


def test_frequency_grid_span():
    # One spacing past the last bin is N/T: twice the Nyquist rate.
    n, alpha, duration = 16, DenseFactor(4), 2.0
    _, m = validate_pair(n, alpha)
    assert bin_frequency(m, alpha, duration) == n / duration
    spectrum = Spectrum(np.zeros(m), n, alpha, duration)
    assert spectrum.frequencies[0] == 0.0
    assert spectrum.frequencies[-1] == bin_frequency(m - 1, alpha, duration)


def test_public_names():
    assert sorted(alpha_spectra.__all__) == [
        "BenchRecord", "ClaimVerdict", "DenseFactor", "IncompatibleAlphaError",
        "OpCounter", "Plan", "ScalingReport", "Signal",
        "Spectrum", "TooManyBinsError", "UnsupportedSizeError", "__version__",
        "aliased_reconstruct", "alpha_fft", "analytic_sine_spectrum", "bin_frequency",
        "is_power_of_two", "make_report", "max_curve_deviation", "naive_forward",
        "naive_inverse", "orthogonality_kernel", "plan", "predicted_adds", "predicted_mults",
        "run_grid", "sine_demo", "sine_signal", "transform_samples", "validate_pair",
    ]


def test_every_public_name_is_used_outside_the_tests():
    # A name in __all__ that only tests call is a helper kept for them.  A use
    # is a reference in another library module (a def or class statement
    # names, it does not refer), in a demo or in the benchmark.
    # __version__ is package metadata, not a helper.
    root = Path(__file__).resolve().parent.parent
    paths = [path for path in root.glob("src/alpha_spectra/*.py") if path.name != "__init__.py"]
    paths += [*root.glob("demos/*.py"), *root.glob("perfbench/*.py")]
    used = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                used.add(node.attr)
    public = set(alpha_spectra.__all__) - {"__version__"}
    assert sorted(public - used) == []


def test_no_unused_imports():
    # No linter is a dependency, so this catches an import that a deletion orphans.
    # A name listed in __all__ counts as used.
    root = Path(__file__).resolve().parent.parent
    unused = []
    for path in sorted([*root.glob("src/alpha_spectra/*.py"), *root.glob("tests/*.py")]):
        tree = ast.parse(path.read_text())
        imported, used = {}, set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "__all__":
                used.update(ast.literal_eval(node.value))
        unused += [f"{path.name}:{line}: {name}"
                   for name, line in imported.items() if name not in used]
    assert unused == []


def test_only_baseline_falls_back_on_unsupported_sizes():
    # baseline.executor is the one owner of method choice: no other library
    # module catches UnsupportedSizeError to run a different executor.
    package = Path(alpha_spectra.__file__).parent
    catching = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                kinds = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                if any(isinstance(kind, ast.Name) and kind.id == "UnsupportedSizeError"
                       for kind in kinds):
                    catching.add(path.name)
    assert catching == {"baseline.py"}


def test_front_ends_plan_and_run_nothing_themselves():
    # The CLI, the bench, the demo and verify run methods through baseline's
    # executors only, so none of them names a planner or a transform.
    package = Path(alpha_spectra.__file__).parent
    executors = {"plan", "alpha_fft", "transform_samples", "naive_forward"}
    found = []
    for name in ("cli.py", "bench.py", "demo.py", "verify.py"):
        for node in ast.walk(ast.parse((package / name).read_text())):
            names = ([alias.name for alias in node.names]
                     if isinstance(node, (ast.Import, ast.ImportFrom))
                     else [node.id] if isinstance(node, ast.Name)
                     else [node.attr] if isinstance(node, ast.Attribute) else [])
            found += [f"{name}:{node.lineno}: {n}" for n in names if n in executors]
    assert found == []


def test_no_module_reads_another_modules_private_name():
    # ``<module>._name`` where ``<module>`` is a library module the file
    # imports, or ``from .<module> import _name``; a class's private
    # attribute, such as Spectrum._adopt, is fine.
    package = Path(alpha_spectra.__file__).parent
    library = {path.stem for path in package.glob("*.py")}
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = {alias.asname or alias.name
                   for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.level and node.module is None
                   for alias in node.names if alias.name in library}
        found += [f"{path.name}:{node.lineno}: {node.value.id}.{node.attr}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr.startswith("_")
                  and isinstance(node.value, ast.Name) and node.value.id in modules]
        found += [f"{path.name}:{node.lineno}: from .{node.module} import {alias.name}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and node.level and node.module in library
                  for alias in node.names if alias.name.startswith("_")]
    assert found == []
