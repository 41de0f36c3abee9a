import csv
import json

import pytest

from alpha_spectra import (
    BenchRecord,
    DenseFactor,
    IncompleteGridError,
    check_alpha_gt1_savings,
    check_alpha_lt1_savings,
    fit_complexity,
    make_report,
    run_grid,
)
from alpha_spectra.bench import write_records_csv

FAST_KW = dict(reps=2, naive_reps=1)


def record_for(records, n, alpha, method):
    for record in records:
        if record.n == n and record.alpha == alpha and record.method == method:
            return record
    raise AssertionError(f"no record for N={n}, alpha={alpha}, {method}")


# ------------------------------------------------------------------- records

def test_record_validation():
    good = BenchRecord(8, DenseFactor(2), "alpha_fft", 24, 48, 1e-6, 3)
    assert good.to_row() == {
        "N": 8, "alpha_p": 2, "alpha_q": 1, "method": "alpha_fft",
        "mults": 24, "adds": 48, "wall_ns": 1000, "reps": 3,
    }
    with pytest.raises(ValueError):
        BenchRecord(8, DenseFactor(2), "butterfly", 24, 48, 1e-6, 3)
    with pytest.raises(ValueError):
        BenchRecord(8, DenseFactor(2), "alpha_fft", -1, 48, 1e-6, 3)
    with pytest.raises(ValueError):
        BenchRecord(8, DenseFactor(2), "alpha_fft", 24, 48, 0.0, 3)
    with pytest.raises(ValueError):
        BenchRecord(8, DenseFactor(2), "alpha_fft", 24, 48, 1e-6, 0)


@pytest.mark.parametrize("n, alpha, method, ok", [
    (256, DenseFactor(2), "alpha_fft", True),
    (256, DenseFactor(2), "zeropad_fft", True),
    (256, DenseFactor(2), "naive", True),
    (12, DenseFactor(1), "alpha_fft", False),     # N not a power of two
    (8, DenseFactor(3, 2), "alpha_fft", False),   # M = 12 not a power of two
    (12, DenseFactor(3, 2), "naive", True),       # naive has no size limits
    (8, DenseFactor(1, 3), "naive", False),       # M = 8/3 not an integer
    (8, DenseFactor(1, 2), "zeropad_fft", False),  # padding cannot thin
])
def test_cell_validity(n, alpha, method, ok):
    skipped = []
    records = run_grid([n], [alpha], methods=(method,), skipped=skipped, **FAST_KW)
    assert len(records) == int(ok)
    assert len(skipped) == int(not ok)
    assert all(s["reason"] for s in skipped)


def test_cell_validity_reason_text():
    skipped = []
    run_grid([8], [DenseFactor(1, 3)], methods=("naive",), skipped=skipped, **FAST_KW)
    (cell,) = skipped
    assert "alpha*N = 8/3 is not an integer" in cell["reason"]


def test_grid_rejects_unknown_method():
    with pytest.raises(ValueError, match="unknown method 'typo'"):
        run_grid([8], [DenseFactor(2)], methods=("alpha_fft", "typo"), **FAST_KW)


# ------------------------------------------------------------------ run_grid

def test_grid_counts_are_exact():
    records = run_grid([256], [DenseFactor(2)], **FAST_KW)
    fast = record_for(records, 256, DenseFactor(2), "alpha_fft")
    pad = record_for(records, 256, DenseFactor(2), "zeropad_fft")
    assert fast.complex_mults == 2048   # (512/2) * log2(256)
    assert pad.complex_mults == 2304    # (512/2) * log2(512)
    assert fast.complex_adds == 512 * 8
    assert fast.wall_time > 0 and fast.repetitions == 2


def test_grid_naive_counts():
    records = run_grid([8], [DenseFactor(1, 4)], methods=("naive",), **FAST_KW)
    naive = record_for(records, 8, DenseFactor(1, 4), "naive")
    assert naive.complex_mults == 16   # N * M
    assert naive.complex_adds == 14    # (N - 1) * M
    assert naive.repetitions == 1


def test_grid_collects_skips():
    skipped = []
    records = run_grid([8, 12], [DenseFactor(1), DenseFactor(3, 2)],
                       methods=("alpha_fft",), skipped=skipped, **FAST_KW)
    assert [(r.n, str(r.alpha)) for r in records] == [(8, "1/1")]
    assert {(s["N"], s["alpha_p"], s["alpha_q"]) for s in skipped} == {
        (8, 3, 2), (12, 1, 1), (12, 3, 2)}
    assert all(s["reason"] for s in skipped)


def test_grid_counts_deterministic_across_runs():
    grid = dict(ns=[64, 128], alphas=[DenseFactor(1, 2), DenseFactor(1), DenseFactor(2)])
    first = run_grid(**grid, **FAST_KW)
    again = run_grid(**grid, **FAST_KW)
    keys = [(r.n, r.alpha, r.method, r.complex_mults, r.complex_adds) for r in first]
    assert keys == [(r.n, r.alpha, r.method, r.complex_mults, r.complex_adds) for r in again]


# -------------------------------------------------------------- claim checks

def test_gt1_savings_gaps():
    records = run_grid([256, 128], [DenseFactor(2), DenseFactor(8)], **FAST_KW)
    verdict = check_alpha_gt1_savings(records)
    assert verdict.passed
    gaps = {(d["N"], d["alpha"]): d["gap"] for d in verdict.details}
    assert gaps[(256, "2/1")] == 256    # (512/2) * log2 2
    assert gaps[(128, "8/1")] == 1536   # (1024/2) * log2 8
    assert all(d["gap"] == d["expected_gap"] for d in verdict.details)


def test_gt1_savings_needs_pairs():
    records = run_grid([64], [DenseFactor(1)], **FAST_KW)
    with pytest.raises(IncompleteGridError):
        check_alpha_gt1_savings(records)


def test_lt1_savings_gap_exceeds_floor():
    records = run_grid([256], [DenseFactor(1, 2), DenseFactor(1)],
                       methods=("alpha_fft",), **FAST_KW)
    verdict = check_alpha_lt1_savings(records)
    assert verdict.passed
    (detail,) = verdict.details
    assert detail["gap"] == 576        # (256/2)*8 - (128/2)*7
    assert detail["expected_gap"] == 576
    assert detail["floor"] == 128      # (256/2) * log2 2
    assert detail["gap"] > detail["floor"]


def test_lt1_savings_warns_on_tiny_spectra():
    records = run_grid([256], [DenseFactor(1, 64), DenseFactor(1)],
                       methods=("alpha_fft",), **FAST_KW)
    verdict = check_alpha_lt1_savings(records)
    assert verdict.passed and not verdict.details
    assert len(verdict.warnings) == 1
    assert "alpha*N=4 < 16" in verdict.warnings[0]


def test_lt1_savings_needs_records():
    records = run_grid([64], [DenseFactor(2)], methods=("alpha_fft",), **FAST_KW)
    with pytest.raises(IncompleteGridError):
        check_alpha_lt1_savings(records)


# ------------------------------------------------------------ complexity fit

def test_fit_is_exact_for_fast_path():
    records = run_grid([64, 128, 256, 512, 1024], [DenseFactor(2)],
                       methods=("alpha_fft",), **FAST_KW)
    fit = fit_complexity(records)
    assert fit.passed
    assert fit.c == 0.5
    assert fit.max_rel_residual == 0.0
    assert fit.n_points == 5


def test_fit_rejects_quadratic_growth():
    records = run_grid([16, 32, 64, 128], [DenseFactor(1)],
                       methods=("naive",), **FAST_KW)
    fit = fit_complexity(records)
    assert not fit.passed
    assert fit.max_rel_residual > 0.1


def test_fit_needs_four_sizes():
    records = run_grid([64, 128, 256], [DenseFactor(1)],
                       methods=("alpha_fft",), **FAST_KW)
    with pytest.raises(IncompleteGridError):
        fit_complexity(records)


# -------------------------------------------------------------------- report

@pytest.fixture(scope="module")
def small_report():
    skipped = []
    records = run_grid(
        [64, 128, 256, 512],
        [DenseFactor(1, 2), DenseFactor(1), DenseFactor(2)],
        skipped=skipped, **FAST_KW)
    return make_report(records, skipped)


def test_report_covers_all_claims(small_report):
    names = [v.claim for v in small_report.verdicts]
    assert names == [
        "alpha_gt1_savings",
        "alpha_lt1_savings",
        "complexity_fit_alpha_1_2",
        "complexity_fit_alpha_1_1",
        "complexity_fit_alpha_2_1",
    ]
    assert small_report.all_passed


def test_report_fit_constants(small_report):
    by_name = {v.claim: v.details[0] for v in small_report.verdicts
               if v.claim.startswith("complexity_fit")}
    assert by_name["complexity_fit_alpha_1_2"]["c"] == 0.25
    assert by_name["complexity_fit_alpha_1_1"]["c"] == 0.5
    assert by_name["complexity_fit_alpha_2_1"]["c"] == 0.5
    assert all(d["max_rel_residual"] == 0.0 for d in by_name.values())


def test_report_json_round_trip(small_report, tmp_path):
    path = tmp_path / "report.json"
    small_report.write_json(path)
    data = json.loads(path.read_text())
    assert set(data) == {"records", "verdicts", "skipped"}
    assert len(data["records"]) == len(small_report.records)
    assert all(set(v) == {"claim", "pass", "record_ids", "details", "warnings"}
               for v in data["verdicts"])
    # zeropad cells for alpha < 1 land in skipped, not in records
    assert {s["method"] for s in data["skipped"]} == {"zeropad_fft"}


def test_records_csv_columns(small_report, tmp_path):
    path = tmp_path / "records.csv"
    write_records_csv(small_report.records, path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == ["N", "alpha_p", "alpha_q", "method",
                             "mults", "adds", "wall_ns", "reps"]
    assert len(rows) == len(small_report.records)
    first = small_report.records[0]
    assert int(rows[0]["mults"]) == first.complex_mults
    assert int(rows[0]["wall_ns"]) > 0


def test_report_write_csv_matches_helper(small_report, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    small_report.write_csv(a)
    write_records_csv(small_report.records, b)
    assert a.read_bytes() == b.read_bytes()
