"""Command-line front end.

Subcommands
-----------
compute    transform a signal file into a spectrum file
demo-sine  emit the half-sine demonstration curves and the analytic reference
bench      run the operation-count/wall-time grid and judge the scaling claims
verify     run the numerical cross-checking suites

A flag's text is read by the library's own rule (``DenseFactor.from_string``,
``parse_int``, ``parse_float``, ``check_method``, ``check_duration``); the
ValueError that refuses it becomes argparse's usage error, exit 2, in one
adapter, ``_argument``.  A command raises every other refusal, and ``main``
alone prints it, as one ``error:`` line, and maps it to its exit code
(``_EXIT_CODES``).

Exit codes: 0 success, 1 verification failure, 2 unreadable or malformed input
(JSON nested too deeply included), an invalid argument, an unwritable output
or a ``bench`` grid with no runnable cell, 3 alpha incompatible with the
signal length (or below 1 for zeropad), 4 size unsupported by the requested
method, 5 benchmark claim failure, 6 result not representable: more than
core.MAX_BINS bins, a spectrum that ``baseline.executor``'s run refuses as
past a double, or not enough memory for the request.
"""

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from . import baseline, bench, demo, io, verify
from .core import (
    MAX_BINS,
    DenseFactor,
    IncompatibleAlphaError,
    Signal,
    TooManyBinsError,
    UnsupportedSizeError,
    check_duration,
    distinct,
    parse_float,
    parse_int,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_PARSE_ERROR = 2
EXIT_BAD_ALPHA = 3
EXIT_BAD_SIZE = 4
EXIT_CLAIM_FAILED = 5
EXIT_NOT_REPRESENTABLE = 6


def _argument(parse):
    """argparse type: ``parse(text)``, its ValueError turned into argparse's usage error."""

    def argument(text):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return argument


_alpha_argument = _argument(DenseFactor.from_string)
_method_argument = _argument(lambda text: baseline.check_method(text.strip()))
_duration_argument = _argument(lambda text: check_duration(parse_float(text)))


def _int_in(minimum, maximum=None):
    """argparse type: an integer (``parse_int``) from ``minimum`` up to ``maximum``, if given."""

    def parse(text):
        try:
            value = parse_int(text)
        except ValueError:
            value = minimum - 1
        if value < minimum or maximum is not None and value > maximum:
            bound = f">= {minimum}" if maximum is None else f"from {minimum} to {maximum}"
            raise ValueError(f"expected an integer {bound}, got {text!r}")
        return value

    return _argument(parse)


_seed_argument = _int_in(0)  # numpy's default_rng rejects negative seeds


def _list_of(parse_item, name):
    """argparse type: a non-empty comma-separated list, each item read by
    ``parse_item``, with no value twice (``distinct``, naming the value
    ``name``; compared as parsed, so ``2`` and ``2/1`` are the same density):
    a repeat would run and judge a grid cell or a verify case once more.
    """

    def parse(text):
        values = distinct((parse_item(part) for part in text.split(",") if part.strip()), name)
        if not values:
            raise ValueError("list must not be empty")
        return values

    return _argument(parse)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alpha-spectra",
        description="Fourier spectra with an adjustable bin density alpha = p/q.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser("compute", help="transform a signal file into a spectrum file")
    compute.add_argument("--input", required=True, help="signal file (CSV or .json)")
    compute.add_argument("--output", required=True, help="spectrum CSV to write")
    compute.add_argument("--alpha", type=_alpha_argument, default=DenseFactor(1),
                         help="bin density p/q (default 1/1)")
    compute.add_argument("--method", type=_method_argument, default="auto",
                         metavar="{" + ",".join(baseline.METHODS) + "}",
                         help="auto picks the fast kernel when sizes allow, else naive")
    compute.add_argument("--duration", type=_duration_argument, default=None,
                         help="override the signal duration T in seconds")
    compute.set_defaults(run=cmd_compute)

    demo_cmd = sub.add_parser("demo-sine", help="emit the half-sine demo curves")
    demo_cmd.add_argument("--n", type=_int_in(2, MAX_BINS), default=64,
                          help="signal length (default 64)")
    demo_cmd.add_argument("--alphas", type=_list_of(_alpha_argument, "alpha"),
                          default=[DenseFactor(1), DenseFactor(2), DenseFactor(4), DenseFactor(8)],
                          help="comma-separated densities (default 1,2,4,8)")
    demo_cmd.add_argument("--output", required=True, help="directory for the demo CSV files")
    demo_cmd.set_defaults(run=cmd_demo_sine)

    bench_cmd = sub.add_parser("bench", help="run the benchmark grid and judge scaling claims")
    bench_cmd.add_argument("--grid-n", type=_list_of(_int_in(1, MAX_BINS), "N"),
                           default=[64, 128, 256, 512, 1024],
                           help="comma-separated positive signal lengths")
    bench_cmd.add_argument("--grid-alpha", type=_list_of(_alpha_argument, "alpha"),
                           default=[DenseFactor(1, 8), DenseFactor(1, 4), DenseFactor(1, 2),
                                    DenseFactor(1), DenseFactor(2), DenseFactor(4), DenseFactor(8)],
                           help="comma-separated densities")
    bench_cmd.add_argument("--methods", type=_list_of(_method_argument, "method"),
                           default=["fft", "zeropad"],
                           help=f"comma-separated methods ({', '.join(baseline.METHODS)})")
    bench_cmd.add_argument("--reps", type=_int_in(1), default=20,
                           help="timing repetitions per cell (default 20)")
    bench_cmd.add_argument("--seed", type=_seed_argument, default=0, help="signal RNG seed")
    bench_cmd.add_argument("--output", default=None, help="JSON report path")
    bench_cmd.add_argument("--csv", default=None, help="optional records CSV path")
    bench_cmd.set_defaults(run=cmd_bench)

    verify_cmd = sub.add_parser("verify", help="run numerical cross-checking suites")
    verify_cmd.add_argument("--seed", type=_seed_argument, default=0, help="RNG seed")
    verify_cmd.add_argument("--sizes", type=_list_of(_int_in(1, MAX_BINS), "N"),
                            default=list(verify.DEFAULT_SIZES),
                            help="comma-separated positive signal lengths")
    verify_cmd.set_defaults(run=cmd_verify)

    return parser


def cmd_compute(args) -> int:
    if os.path.realpath(args.output) == os.path.realpath(args.input):
        # The spectrum would overwrite the signal it is computed from.
        raise argparse.ArgumentTypeError(f"--input and --output name one file: {args.output}")
    try:
        signal = io.read_signal(args.input)
    except io.SignalParseError as exc:
        raise io.SignalParseError(f"{args.input}: {exc}") from None
    if args.duration is not None:
        signal = Signal(signal.samples, args.duration)

    run, method = baseline.executor(len(signal), args.alpha, args.method)
    spectrum = run(signal)
    io.write_spectrum(spectrum, args.output, method)
    print(f"wrote {spectrum.m} bins (N={spectrum.origin_n}, alpha={args.alpha}, method={method}) "
          f"to {args.output}")
    return EXIT_OK


def cmd_demo_sine(args) -> int:
    curves = demo.sine_demo(args.n, args.alphas)
    out_dir = Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    names = ("freq", "magnitude", "normalized")
    for alpha, curve in curves.items():
        name = f"sine_alpha_{alpha.p}_{alpha.q}.csv"
        magnitudes = curve.spectrum.magnitudes
        io.write_csv(out_dir / name, {"demo": "sine", "N": args.n, "alpha": alpha,
                                      "X0": magnitudes[0]},
                     names, (curve.spectrum.frequencies, magnitudes, curve.normalized))
        print(f"wrote {name} ({curve.spectrum.m} bins)")

    grid = np.arange(0.0, 8.0 + 1.0 / 256.0, 1.0 / 128.0)
    io.write_csv(out_dir / "sine_analytic.csv", {"demo": "sine-analytic", "X0": demo.SINE_DC},
                 names, (grid, np.abs(demo.analytic_sine_spectrum(grid)),
                         demo.analytic_normalized(grid)))
    print(f"wrote sine_analytic.csv ({grid.size} points)")
    return EXIT_OK


def cmd_bench(args) -> int:
    if args.output and args.csv and os.path.realpath(args.output) == os.path.realpath(args.csv):
        # The records CSV would overwrite the JSON report it follows.
        raise argparse.ArgumentTypeError(f"--output and --csv name one file: {args.csv}")
    skipped = []
    records = bench.run_grid(args.grid_n, args.grid_alpha, args.methods,
                             reps=args.reps, seed=args.seed, skipped=skipped)
    if not records:
        raise argparse.ArgumentTypeError("no runnable grid cells")
    report = bench.make_report(records, skipped)
    written = []
    try:
        for path, write in ((args.output, report.write_json), (args.csv, report.write_csv)):
            if path:
                write(path)
                written.append(path)
    except OSError:
        # The writer that raised removed its own file: a refused bench leaves neither.
        for path in written:
            Path(path).unlink()
        raise
    if args.output:
        print(f"wrote {args.output} ({len(records)} records)")
    if args.csv:
        print(f"wrote {args.csv}")
    for cell in skipped:
        print(f"skipped N={cell['N']} alpha={cell['alpha_p']}/{cell['alpha_q']} "
              f"{cell['method']}: {cell['reason']}")
    for verdict in report.verdicts:
        status = "pass" if verdict.passed else "FAIL"
        print(f"claim {verdict.claim}: {status}")
        for warning in verdict.warnings:
            print(f"  warning: {warning}")
    if not report.verdicts:
        print("warning: grid too small to evaluate any scaling claim")
    return EXIT_OK if report.all_passed else EXIT_CLAIM_FAILED


def cmd_verify(args) -> int:
    results = verify.run_all(seed=args.seed, sizes=args.sizes)
    failed = [r for r in results if not r.passed]
    for result in results:
        status = "SKIP" if not result.cases else "PASS" if result.passed else "FAIL"
        print(f"{result.name}: max error {result.max_error:.3e} "
              f"(tolerance {result.tolerance:.0e}, {result.cases} cases) {status}")
    for result in failed:
        print(f"  worst case for {result.name}: {result.worst}", file=sys.stderr)
    return EXIT_OK if not failed else EXIT_VERIFY_FAILED


#: What ends a command early, in match order: the exception class and its
#: exit code.  A command raises every refusal; ``main`` prints it as the one
#: ``error:`` line.
_EXIT_CODES = (
    (IncompatibleAlphaError, EXIT_BAD_ALPHA),
    (UnsupportedSizeError, EXIT_BAD_SIZE),
    (TooManyBinsError, EXIT_NOT_REPRESENTABLE),
    (MemoryError, EXIT_NOT_REPRESENTABLE),
    (OverflowError, EXIT_NOT_REPRESENTABLE),  # a spectrum executor's run refuses
    (io.SignalParseError, EXIT_PARSE_ERROR),  # a malformed input, its path in front
    (argparse.ArgumentTypeError, EXIT_PARSE_ERROR),  # one file named twice, or no runnable cell
    (OSError, EXIT_PARSE_ERROR),  # a file that cannot be read or written
)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except tuple(kind for kind, _ in _EXIT_CODES) as exc:
        # A MemoryError raised by the interpreter itself carries no message.
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))


def entry() -> None:  # console-script hook
    sys.exit(main())


if __name__ == "__main__":
    entry()
