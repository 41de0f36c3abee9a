import csv
import dataclasses
import json

import pytest

from alpha_spectra import (
    BenchRecord,
    DenseFactor,
    IncompatibleAlphaError,
    baseline,
    bench,
    make_report,
    run_grid,
)

from contract_rules import bench_cell, expected, expected_mults, expected_reps

FAST_KW = dict(reps=2)


def record_for(records, n, alpha, method):
    for record in records:
        if record.n == n and record.alpha == alpha and record.method == method:
            return record
    raise AssertionError(f"no record for N={n}, alpha={alpha}, {method}")


def verdicts_of(records):
    """make_report's verdicts by claim, in report order."""
    return {verdict.claim: verdict for verdict in make_report(records).verdicts}


# ------------------------------------------------------------------- records

def test_record_validation():
    good = BenchRecord(8, DenseFactor(2), "fft", 24, 48, 1e-6, 3)
    assert good.to_row() == {
        "N": 8, "alpha_p": 2, "alpha_q": 1, "method": "fft",
        "mults": 24, "adds": 48, "wall_ns": 1000, "reps": 3,
    }
    with pytest.raises(ValueError):
        BenchRecord(8, DenseFactor(2), "butterfly", 24, 48, 1e-6, 3)
    # No executor runs "auto", and no claim would look at a record carrying it.
    with pytest.raises(ValueError, match="choose from fft, naive, zeropad"):
        BenchRecord(8, DenseFactor(2), "auto", 24, 48, 1e-6, 3)
    with pytest.raises(ValueError):
        BenchRecord(8, DenseFactor(2), "fft", -1, 48, 1e-6, 3)
    with pytest.raises(ValueError):
        BenchRecord(8, DenseFactor(2), "fft", 24, 48, 0.0, 3)
    with pytest.raises(ValueError):
        BenchRecord(8, DenseFactor(2), "fft", 24, 48, 1e-6, 0)
    # A pair that no transform takes is refused where its record is built,
    # not later inside a claim judge.
    with pytest.raises(IncompatibleAlphaError, match="alpha\\*N = 16/3 is not an integer"):
        BenchRecord(16, DenseFactor(1, 3), "fft", 1, 1, 1e-6, 1)
    with pytest.raises(ValueError, match="signal length must be an integer >= 1"):
        BenchRecord(0, DenseFactor(1), "fft", 0, 0, 1e-6, 1)


@pytest.mark.parametrize("n, alpha, method, ok", [
    (256, DenseFactor(2), "fft", True),
    (256, DenseFactor(2), "zeropad", True),
    (256, DenseFactor(2), "naive", True),
    (12, DenseFactor(1), "fft", False),        # N not a power of two
    (8, DenseFactor(3, 2), "fft", False),      # M = 12 not a power of two
    (12, DenseFactor(3, 2), "naive", True),    # naive has no size limits
    (8, DenseFactor(1, 3), "naive", False),    # M = 8/3 not an integer
    (8, DenseFactor(1, 2), "zeropad", False),  # padding cannot thin
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


def test_zeropad_refusal_names_the_input_length():
    skipped = []
    run_grid([12], [DenseFactor(3)], methods=("zeropad",), skipped=skipped, **FAST_KW)
    (cell,) = skipped
    assert cell["reason"].startswith(
        "zero-padding needs a power-of-two alpha*N, got N=12, alpha*N=36;")


def test_grid_rejects_unknown_method():
    with pytest.raises(ValueError, match="unknown method 'typo'"):
        run_grid([8], [DenseFactor(2)], methods=("fft", "typo"), **FAST_KW)


@pytest.mark.parametrize("reps", [0, -1])
def test_grid_rejects_reps_below_one(reps):
    with pytest.raises(ValueError, match=f"reps must be at least 1, got {reps}"):
        run_grid([16], [DenseFactor(2)], reps=reps)


def test_grid_refuses_a_repeated_grid_value():
    # Values compare as parsed: 2 and 2/1 are one density, so this call used
    # to time and judge the cell (16, 2) four times over, in 8 records.
    with pytest.raises(ValueError, match="N 16 given twice"):
        run_grid([16, 16], [DenseFactor(2), DenseFactor(2, 1)], reps=1)
    with pytest.raises(ValueError, match="alpha 2/1 given twice"):
        run_grid([16], [DenseFactor(2), DenseFactor(2, 1)], reps=1)


# ------------------------------------------------------------------ run_grid

def test_grid_counts_are_exact():
    records = run_grid([256], [DenseFactor(2)], **FAST_KW)
    fast = record_for(records, 256, DenseFactor(2), "fft")
    pad = record_for(records, 256, DenseFactor(2), "zeropad")
    assert fast.complex_mults == 2048   # (512/2) * log2(256)
    assert pad.complex_mults == 2304    # (512/2) * log2(512)
    assert fast.complex_adds == 512 * 8
    assert fast.wall_time > 0 and fast.repetitions == 2


def test_grid_naive_counts():
    records = run_grid([8], [DenseFactor(1, 4)], methods=("naive",), reps=5)
    naive = record_for(records, 8, DenseFactor(1, 4), "naive")
    assert naive.complex_mults == 16   # N * M
    assert naive.complex_adds == 14    # (N - 1) * M
    assert naive.repetitions == 3      # capped at NAIVE_REPS


def test_grid_records_the_method_auto_runs():
    # auto is timed as what compute runs by default, under that method's name.
    records = run_grid([12, 16], [DenseFactor(1)], methods=("auto",), reps=5)
    labels = [expected(n, 1, "auto")[1] for n in (12, 16)]
    assert [(r.n, r.method) for r in records] == list(zip((12, 16), labels))
    assert [r.repetitions for r in records] == [expected_reps(label, 5) for label in labels]
    assert [r.complex_mults for r in records] == [
        expected_mults(label, n, 1) for n, label in zip((12, 16), labels)]


def test_grid_times_each_label_of_a_cell_once():
    # A method whose label an earlier method of the cell timed is skipped.
    methods = ("auto", "fft", "zeropad")
    skipped = []
    records = run_grid([16], [DenseFactor(2)], methods=methods, reps=1, skipped=skipped)
    labels, repeats = bench_cell(16, 2, methods)
    assert [r.method for r in records] == labels
    assert [(s["method"], s["reason"]) for s in skipped] == repeats
    assert verdicts_of(records)["alpha_gt1_savings"].record_ids == [labels.index("fft"),
                                                                    labels.index("zeropad")]


@pytest.mark.parametrize("n, alpha, methods", [
    (16, DenseFactor(2), ("fft", "fft")),
    (12, DenseFactor(3, 2), ("auto", "naive")),
])
def test_grid_times_a_repeated_label_once(n, alpha, methods):
    skipped = []
    records = run_grid([n], [alpha], methods=methods, reps=1, skipped=skipped)
    labels, repeats = bench_cell(n, alpha, methods)
    assert len(labels) == len(repeats) == 1  # by the rules, both methods run one executor
    assert [r.method for r in records] == labels
    assert [(s["method"], s["reason"]) for s in skipped] == repeats


def test_grid_times_a_cell_in_interleaved_rounds(monkeypatch):
    # Each executor's counted run comes first; then every round runs each
    # executor whose repetitions are not done, so one slow stretch of the
    # host cannot fall on one method's repetitions alone.
    runs = []
    executor = baseline.executor

    def logged(n, alpha, method):
        run, name = executor(n, alpha, method)

        def logged_run(signal, counter=None):
            runs.append(name if counter is None else f"count {name}")
            return run(signal, counter)

        return logged_run, name

    monkeypatch.setattr(baseline, "executor", logged)
    records = run_grid([16], [DenseFactor(2)], methods=("fft", "zeropad", "naive"), reps=4)
    assert [(r.method, r.repetitions) for r in records] == [("fft", 4), ("zeropad", 4), ("naive", 3)]
    assert runs == ["count fft", "count zeropad"] + ["fft", "zeropad", "naive"] * 3 + [
        "fft", "zeropad"]


def test_grid_collects_skips():
    skipped = []
    records = run_grid([8, 12], [DenseFactor(1), DenseFactor(3, 2)],
                       methods=("fft",), skipped=skipped, **FAST_KW)
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


def test_grid_draws_signals_only_for_runnable_sizes(monkeypatch):
    drawn = []
    draw = bench.random_unit_disk

    def record(rng, n):
        drawn.append(n)
        return draw(rng, n)

    monkeypatch.setattr(bench, "random_unit_disk", record)
    # N = 7 has no integer alpha*N; N = 24 has pairs, but neither method runs
    # them (24 is not a power of two, and padding cannot thin).
    records = run_grid([7, 24, 16], [DenseFactor(1, 3), DenseFactor(1, 2)], **FAST_KW)
    assert [(r.n, r.method) for r in records] == [(16, "fft")]
    assert drawn == [16]


# -------------------------------------------------------------- claim checks

def test_gt1_savings_gaps():
    records = run_grid([256, 128], [DenseFactor(2), DenseFactor(8)], **FAST_KW)
    verdict = verdicts_of(records)["alpha_gt1_savings"]
    assert verdict.passed
    gaps = {(d["N"], d["alpha"]): d["gap"] for d in verdict.details}
    assert gaps[(256, "2/1")] == 256    # (512/2) * log2 2
    assert gaps[(128, "8/1")] == 1536   # (1024/2) * log2 8
    assert all(d["gap"] == d["expected_gap"] for d in verdict.details)


def test_gt1_savings_needs_pairs():
    records = run_grid([64], [DenseFactor(1)], **FAST_KW)
    assert "alpha_gt1_savings" not in verdicts_of(records)


def test_lt1_savings_gap_exceeds_floor():
    records = run_grid([256], [DenseFactor(1, 2), DenseFactor(1)],
                       methods=("fft",), **FAST_KW)
    verdict = verdicts_of(records)["alpha_lt1_savings"]
    assert verdict.passed
    (detail,) = verdict.details
    assert detail["gap"] == 576        # (256/2)*8 - (128/2)*7
    assert detail["expected_gap"] == 576
    assert detail["floor"] == 128      # (256/2) * log2 2
    assert detail["gap"] > detail["floor"]


def test_lt1_savings_warns_on_tiny_spectra():
    records = run_grid([256], [DenseFactor(1, 64), DenseFactor(1)],
                       methods=("fft",), **FAST_KW)
    # alpha*N = 4 is only warned about, so no cell is judged: no verdict.
    assert "alpha_lt1_savings" not in verdicts_of(records)
    # Beside a judged cell, the tiny one is a warning of the verdict.
    records = run_grid([256], [DenseFactor(1, 64), DenseFactor(1, 2), DenseFactor(1)],
                       methods=("fft",), **FAST_KW)
    verdict = verdicts_of(records)["alpha_lt1_savings"]
    assert verdict.passed
    assert [d["alpha"] for d in verdict.details] == ["1/2"]
    assert verdict.warnings == ["N=256, alpha=1/64: alpha*N=4 < 16, excluded from the claim"]


def test_lt1_savings_needs_records():
    records = run_grid([64], [DenseFactor(2)], methods=("fft",), **FAST_KW)
    assert "alpha_lt1_savings" not in verdicts_of(records)


# ------------------------------------------------------------ complexity fit

def test_fit_is_exact_for_fast_path():
    records = run_grid([64, 128, 256, 512, 1024], [DenseFactor(2)],
                       methods=("fft",), **FAST_KW)
    (fit,) = make_report(records).verdicts
    assert fit.passed
    assert fit.claim == "complexity_fit_alpha_2_1"
    assert fit.record_ids == [0, 1, 2, 3, 4]
    assert fit.details == [{"c": 0.5, "expected_c": 0.5, "max_rel_residual": 0.0,
                            "n_points": 5}]


def test_fit_checks_the_constant():
    # Doubled counts still fit c * M * log2(min) exactly, but with c = 1.0
    # where the paper's constant is 0.5.
    records = run_grid([64, 128, 256, 512, 1024], [DenseFactor(2)],
                       methods=("fft",), **FAST_KW)
    doubled = [dataclasses.replace(r, complex_mults=2 * r.complex_mults) for r in records]
    fit = bench._fit(doubled, [0, 1, 2, 3, 4])
    assert not fit.passed
    assert fit.details[0]["c"] == 1.0
    assert fit.details[0]["max_rel_residual"] == 0.0


def test_fit_rejects_quadratic_growth():
    # The naive transform's counts, labelled as fft records so the report fits them.
    records = run_grid([16, 32, 64, 128], [DenseFactor(1)],
                       methods=("naive",), **FAST_KW)
    relabelled = [dataclasses.replace(r, method="fft") for r in records]
    fit = verdicts_of(relabelled)["complexity_fit_alpha_1_1"]
    assert not fit.passed
    assert fit.details[0]["max_rel_residual"] > 0.1


def test_fit_needs_four_sizes():
    records = run_grid([64, 128, 256], [DenseFactor(1)],
                       methods=("fft",), **FAST_KW)
    assert make_report(records).verdicts == []


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


def test_report_fit_checks_the_constant(small_report):
    # Doubled counts still fit c * M * log2(min) exactly, but with c = 1.0
    # where the paper's constant is 0.5.
    doubled = [dataclasses.replace(r, complex_mults=2 * r.complex_mults)
               if r.method == "fft" and r.alpha == DenseFactor(2) else r
               for r in small_report.records]
    verdicts = {v.claim: v for v in make_report(doubled).verdicts}
    fit = verdicts["complexity_fit_alpha_2_1"]
    assert fit.details[0]["c"] == 1.0
    assert fit.details[0]["expected_c"] == 0.5
    assert fit.details[0]["max_rel_residual"] == 0.0
    assert not fit.passed
    assert verdicts["complexity_fit_alpha_1_1"].passed


def test_report_json_round_trip(small_report, tmp_path):
    path = tmp_path / "report.json"
    small_report.write_json(path)
    data = json.loads(path.read_text())
    assert set(data) == {"records", "verdicts", "skipped"}
    assert len(data["records"]) == len(small_report.records)
    assert all(set(v) == {"claim", "pass", "record_ids", "details", "warnings"}
               for v in data["verdicts"])
    # zeropad cells for alpha < 1 land in skipped, not in records
    assert {s["method"] for s in data["skipped"]} == {"zeropad"}


def test_records_csv_columns(small_report, tmp_path):
    path = tmp_path / "records.csv"
    small_report.write_csv(path)
    assert b"\r" not in path.read_bytes()  # LF line ends, like every other CSV written
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == ["N", "alpha_p", "alpha_q", "method",
                             "mults", "adds", "wall_ns", "reps"]
    assert len(rows) == len(small_report.records)
    first = small_report.records[0]
    assert int(rows[0]["mults"]) == first.complex_mults
    assert int(rows[0]["wall_ns"]) > 0


def assert_ids_point_at_judged_records(report):
    records = report.records
    for verdict in report.verdicts:
        assert all(0 <= i < len(records) for i in verdict.record_ids)
        if verdict.claim.startswith("complexity_fit"):
            alpha = records[verdict.record_ids[0]].alpha
            assert verdict.record_ids == [i for i, r in enumerate(records)
                                          if r.method == "fft" and r.alpha == alpha]
            assert verdict.claim == f"complexity_fit_alpha_{alpha.p}_{alpha.q}"
            continue
        # Each detail judged one (fft, partner) pair of ids.
        pairs = zip(verdict.record_ids[::2], verdict.record_ids[1::2])
        assert len(verdict.record_ids) == 2 * len(verdict.details)
        for detail, (i, j) in zip(verdict.details, pairs):
            assert (records[i].n, str(records[i].alpha)) == (detail["N"], detail["alpha"])
            assert records[i].method == "fft"
            assert records[i].complex_mults == detail["alpha_mults"]
            assert (records[j].n, records[j].complex_mults) == (
                detail["N"], detail.get("zeropad_mults", detail.get("fft_mults")))


def test_report_record_ids_point_at_judged_records(small_report):
    assert_ids_point_at_judged_records(small_report)


def test_report_judges_every_copy_of_a_repeated_cell():
    # run_grid refuses a repeated N, so the cell (64, 2) is copied by hand.
    records = run_grid([64, 128, 256, 512], [DenseFactor(2)], **FAST_KW)
    records = records[:2] + records
    report = make_report(records)
    assert_ids_point_at_judged_records(report)
    gt1 = report.verdicts[0]
    assert gt1.claim == "alpha_gt1_savings"
    fast_ids = [i for i, r in enumerate(records) if r.method == "fft"]
    assert gt1.record_ids[::2] == fast_ids
    assert [d["N"] for d in gt1.details] == [64, 64, 128, 256, 512]
    assert report.all_passed
