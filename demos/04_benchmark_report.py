"""
Benchmark grid and scaling report
=================================

Runs the measurement grid behind ``alpha-spectra bench``: every runnable
(N, alpha, method) cell gets exact operation counts plus a best-of-reps
wall time, and the claim checkers then judge the scaling story -- the
two savings gaps hold exactly, and multiply counts fit
c * max(N, alpha*N) * log2(min(N, alpha*N)) with zero residual.

Artifacts (a JSON report and a records CSV) are written to a temporary
directory, listed with their line counts, and removed when the script ends, so
repeated runs leave nothing behind.
"""

import tempfile
from pathlib import Path

from alpha_spectra import DenseFactor, make_report, run_grid

NS = [64, 128, 256, 512, 1024]
ALPHAS = [DenseFactor(1, 8), DenseFactor(1, 4), DenseFactor(1, 2),
          DenseFactor(1), DenseFactor(2), DenseFactor(4), DenseFactor(8)]

skipped = []
records = run_grid(NS, ALPHAS, methods=("fft", "zeropad"),
                   reps=5, seed=0, skipped=skipped)
print(f"measured {len(records)} grid cells "
      f"({len(skipped)} skipped: zero-padding cannot thin, alpha < 1)")

# The raw material: one record per cell.
print("\n     N  alpha        method       mults      wall")
for record in records[:6]:
    print(f"{record.n:6d}  {str(record.alpha):>5}  {record.method:>12}  "
          f"{record.complex_mults:10d}  {record.wall_time * 1e6:7.1f} us")
print(f"   ... {len(records) - 6} more")

# The verdicts: exact gap identities plus a per-density complexity fit.
report = make_report(records, skipped)
print("\nclaim verdicts")
for verdict in report.verdicts:
    print(f"  {verdict.claim}: {'pass' if verdict.passed else 'FAIL'}")
    for detail in verdict.details[:2]:
        if "c" in detail:
            print(f"    c = {detail['c']:.3f} (expected {detail['expected_c']:.3f}), "
                  f"max residual {detail['max_rel_residual']:.1e} "
                  f"over {detail['n_points']} points")
        else:
            print(f"    N={detail['N']} alpha={detail['alpha']}: "
                  f"gap {detail['gap']} == expected {detail['expected_gap']}")
    for warning in verdict.warnings:
        print(f"    warning: {warning}")

print()
with tempfile.TemporaryDirectory(prefix="alpha_spectra_bench_") as out_dir:
    for name, write in (("report.json", report.write_json), ("records.csv", report.write_csv)):
        path = Path(out_dir) / name
        write(path)
        print(f"wrote {name}: {len(path.read_text().splitlines())} lines")
print(f"all claims {'passed' if report.all_passed else 'FAILED'}")
