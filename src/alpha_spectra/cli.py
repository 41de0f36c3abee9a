"""Command-line front end.

Subcommands
-----------
compute    transform a signal file into a spectrum file
demo-sine  emit the half-sine demonstration curves and the analytic reference
bench      run the operation-count/wall-time grid and judge the scaling claims
verify     run the numerical cross-checking suites

Exit codes: 0 success, 1 verification failure, 2 unreadable or malformed
input, an invalid argument or an unwritable output, 3 alpha incompatible
with the signal length, 4 size unsupported by the requested method,
5 benchmark claim failure, 6 result not representable: more than
core.MAX_BINS bins, or a spectrum whose bins overflow a double.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from . import baseline, bench, demo, fastpath, io, oracle, verify
from .core import (
    DenseFactor,
    IncompatibleAlphaError,
    Signal,
    Spectrum,
    TooManyBinsError,
    UnsupportedSizeError,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_PARSE_ERROR = 2
EXIT_BAD_ALPHA = 3
EXIT_BAD_SIZE = 4
EXIT_CLAIM_FAILED = 5
EXIT_NOT_REPRESENTABLE = 6


def _alpha_argument(text):
    try:
        return DenseFactor.from_string(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _int_at_least(minimum):
    """argparse type: an integer no smaller than ``minimum``."""

    def parse(text):
        try:
            value = int(text)
        except ValueError:
            value = minimum - 1
        if value < minimum:
            raise argparse.ArgumentTypeError(f"expected an integer >= {minimum}, got {text!r}")
        return value

    return parse


_positive_int_argument = _int_at_least(1)
_seed_argument = _int_at_least(0)  # numpy's default_rng rejects negative seeds


def _int_list_argument(text):
    values = [_positive_int_argument(part) for part in text.split(",") if part.strip()]
    if not values:
        raise argparse.ArgumentTypeError("list must not be empty")
    return values


def _duration_argument(text):
    try:
        return io.check_duration(float(text))
    except ValueError as exc:  # not a number, or io.SignalParseError
        raise argparse.ArgumentTypeError(str(exc)) from None


def _alpha_list_argument(text):
    try:
        return [DenseFactor.from_string(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _method_list_argument(text):
    methods = [part.strip() for part in text.split(",") if part.strip()]
    for method in methods:
        if method not in bench.METHODS:
            raise argparse.ArgumentTypeError(
                f"unknown method {method!r} (choose from {', '.join(bench.METHODS)})"
            )
    return methods


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
    compute.add_argument("--method", choices=("auto", "fft", "naive", "zeropad"),
                         default="auto",
                         help="auto picks the fast kernel when sizes allow, else naive")
    compute.add_argument("--duration", type=_duration_argument, default=None,
                         help="override the signal duration T in seconds")

    demo_cmd = sub.add_parser("demo-sine", help="emit the half-sine demo curves")
    demo_cmd.add_argument("--n", type=_positive_int_argument, default=64,
                          help="signal length (default 64)")
    demo_cmd.add_argument("--alphas", type=_alpha_list_argument,
                          default=[DenseFactor(1), DenseFactor(2), DenseFactor(4), DenseFactor(8)],
                          help="comma-separated densities (default 1,2,4,8)")
    demo_cmd.add_argument("--output", required=True, help="directory for the demo CSV files")

    bench_cmd = sub.add_parser("bench", help="run the benchmark grid and judge scaling claims")
    bench_cmd.add_argument("--grid-n", type=_int_list_argument,
                           default=[64, 128, 256, 512, 1024],
                           help="comma-separated positive signal lengths")
    bench_cmd.add_argument("--grid-alpha", type=_alpha_list_argument,
                           default=[DenseFactor(1, 8), DenseFactor(1, 4), DenseFactor(1, 2),
                                    DenseFactor(1), DenseFactor(2), DenseFactor(4), DenseFactor(8)],
                           help="comma-separated densities")
    bench_cmd.add_argument("--methods", type=_method_list_argument,
                           default=["alpha_fft", "zeropad_fft"],
                           help="comma-separated methods (alpha_fft, zeropad_fft, naive)")
    bench_cmd.add_argument("--reps", type=_positive_int_argument, default=20,
                           help="timing repetitions per cell (default 20)")
    bench_cmd.add_argument("--seed", type=_seed_argument, default=0, help="signal RNG seed")
    bench_cmd.add_argument("--output", default=None, help="JSON report path")
    bench_cmd.add_argument("--csv", default=None, help="optional records CSV path")

    verify_cmd = sub.add_parser("verify", help="run numerical cross-checking suites")
    verify_cmd.add_argument("--seed", type=_seed_argument, default=0, help="RNG seed")
    verify_cmd.add_argument("--sizes", type=_int_list_argument,
                            default=list(verify.DEFAULT_SIZES),
                            help="comma-separated positive signal lengths")
    verify_cmd.add_argument("--inject-fault", action="store_true", help=argparse.SUPPRESS)

    return parser


# Overflow to inf (and inf - inf to nan) in the transform is reported as exit
# code 6 naming the first non-finite bin, not as a numpy warning.
@np.errstate(over="ignore", invalid="ignore")
def cmd_compute(args) -> int:
    try:
        signal = io.read_signal(args.input)
    except FileNotFoundError:
        print(f"error: no such file: {args.input}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    except (io.SignalParseError, UnicodeDecodeError) as exc:
        print(f"error: {args.input}: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    if args.duration is not None:
        signal = Signal(signal.samples, args.duration)

    alpha = args.alpha
    try:
        if args.method == "naive":
            spectrum, method = oracle.naive_forward(signal, alpha), "naive"
        elif args.method == "fft":
            spectrum, method = fastpath.alpha_fft(signal, fastpath.plan(len(signal), alpha)), "fft"
        elif args.method == "zeropad":
            if alpha.p < alpha.q:
                print(f"error: zero-padding needs alpha >= 1, got {alpha}", file=sys.stderr)
                return EXIT_BAD_ALPHA
            padded = baseline.standard_fft(baseline.zero_pad(signal, alpha))
            spectrum = Spectrum(padded.bins, len(signal), alpha, signal.duration)
            method = "zeropad"
        else:  # auto: fast kernel when the pair allows it, else the oracle
            try:
                spectrum, method = fastpath.alpha_fft(signal, fastpath.plan(len(signal), alpha)), "fft"
            except UnsupportedSizeError:
                spectrum, method = oracle.naive_forward(signal, alpha), "naive"
    except IncompatibleAlphaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_ALPHA
    except UnsupportedSizeError as exc:
        print(f"error: {exc} (try --method naive)", file=sys.stderr)
        return EXIT_BAD_SIZE
    except TooManyBinsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_REPRESENTABLE
    bad = np.flatnonzero(~np.isfinite(spectrum.bins))
    if bad.size:
        print(f"error: bin {bad[0]} is not finite: the spectrum overflows a double",
              file=sys.stderr)
        return EXIT_NOT_REPRESENTABLE

    io.write_spectrum(spectrum, args.output, method)
    print(f"wrote {spectrum.m} bins (N={spectrum.origin_n}, alpha={alpha}, method={method}) "
          f"to {args.output}")
    return EXIT_OK


def cmd_demo_sine(args) -> int:
    out_dir = Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        curves = demo.sine_demo(args.n, args.alphas)
    except TooManyBinsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_REPRESENTABLE
    except (IncompatibleAlphaError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_ALPHA

    for alpha, curve in curves.items():
        rows = ["# demo=sine", f"# N={args.n}", f"# alpha={alpha.p}/{alpha.q}",
                f"# X0={io._fmt(curve.magnitudes[0])}",
                "freq,magnitude,normalized"]
        for freq, magnitude, norm in zip(curve.frequencies, curve.magnitudes, curve.normalized):
            rows.append(f"{io._fmt(freq)},{io._fmt(magnitude)},{io._fmt(norm)}")
        name = f"sine_alpha_{alpha.p}_{alpha.q}.csv"
        (out_dir / name).write_text("\n".join(rows) + "\n")
        print(f"wrote {name} ({len(curve.frequencies)} bins)")

    grid = np.arange(0.0, 8.0 + 1.0 / 256.0, 1.0 / 128.0)
    reference = np.abs(demo.analytic_sine_spectrum(grid))
    rows = ["# demo=sine-analytic", f"# X0={io._fmt(demo.SINE_DC)}", "freq,magnitude,normalized"]
    for freq, magnitude in zip(grid, reference):
        rows.append(f"{io._fmt(freq)},{io._fmt(magnitude)},{io._fmt(magnitude / demo.SINE_DC)}")
    (out_dir / "sine_analytic.csv").write_text("\n".join(rows) + "\n")
    print(f"wrote sine_analytic.csv ({grid.size} points)")
    return EXIT_OK


def cmd_bench(args) -> int:
    skipped = []
    records = bench.run_grid(args.grid_n, args.grid_alpha, args.methods,
                             reps=args.reps, seed=args.seed, skipped=skipped)
    if not records:
        print("error: no runnable grid cells", file=sys.stderr)
        return EXIT_PARSE_ERROR
    report = bench.make_report(records, skipped)
    if args.output:
        report.write_json(args.output)
        print(f"wrote {args.output} ({len(records)} records)")
    if args.csv:
        report.write_csv(args.csv)
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
    results = verify.run_all(seed=args.seed, sizes=args.sizes,
                             inject_fault=args.inject_fault)
    failed = [r for r in results if not r.passed]
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(f"{result.name}: max error {result.max_error:.3e} "
              f"(tolerance {result.tolerance:.0e}, {result.cases} cases) {status}")
    for result in failed:
        print(f"  worst case for {result.name}: {result.worst}", file=sys.stderr)
    return EXIT_OK if not failed else EXIT_VERIFY_FAILED


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "compute": cmd_compute,
        "demo-sine": cmd_demo_sine,
        "bench": cmd_bench,
        "verify": cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except OSError as exc:  # a file that cannot be read or written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR


def entry() -> None:  # console-script hook
    sys.exit(main())


if __name__ == "__main__":
    entry()
