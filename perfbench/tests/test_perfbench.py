"""Tests of the benchmark's own helpers.

Run from the repository root: ``python3 -m pytest -q perfbench/tests``.
"""

import contextlib
import io as stdio

import numpy as np
import pytest

from alpha_spectra import cli, fastpath, io, oracle
from alpha_spectra.core import DenseFactor, Signal, Spectrum

import harness
import tracing
from workloads import Workload, check, prepare, reference_bins, request


@pytest.mark.parametrize("n, alpha", [(8, "2"), (8, "1"), (16, "1/4"), (6, "5/3"), (10, "3/5")])
def test_reference_matches_oracle(n, alpha):
    # Covers both identities, including an alias fold whose alpha*N does not divide N.
    rng = np.random.default_rng(3)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    expected = oracle.naive_forward(Signal(x), DenseFactor.from_string(alpha)).bins
    np.testing.assert_allclose(reference_bins(x, expected.size), expected, rtol=0, atol=1e-12)


def test_check_rejects_corrupted_spectrum(tmp_path):
    (case,) = prepare(Workload(((64, "4", None),)), seed=5, workdir=tmp_path)
    spectrum, p = request(case)
    assert check(case, (spectrum, p)) is None
    bins = spectrum.bins.copy()
    bins[7] += 1e-6 * np.max(np.abs(bins))
    corrupted = Spectrum(bins, spectrum.origin_n, spectrum.alpha, spectrum.duration)
    assert "relative max error" in check(case, (corrupted, p))


def test_check_rejects_corrupted_csv(tmp_path):
    (case,) = prepare(Workload(((32, "1/2", "json"),), ()), seed=5, workdir=tmp_path)
    assert check(case, request(case)) is None
    assert not case.output.exists()  # a stale file cannot pass for the next request's output
    assert "cannot read" in check(case, cli.EXIT_OK)
    request(case)
    text = case.output.read_text()
    lines = text.splitlines()
    cells = lines[7].split(",")
    cells[2] = repr(float(cells[2]) + 1.0)
    lines[7] = ",".join(cells)
    case.output.write_text("\n".join(lines) + "\n")
    assert "relative max error" in check(case, cli.EXIT_OK)
    case.output.write_text(text.replace("# alpha=1/2", "# alpha=1/4"))
    assert "alpha" in check(case, cli.EXIT_OK)
    case.output.write_text(text.replace(lines[9], "9,nan,x,y,z"))
    assert "unparseable" in check(case, cli.EXIT_OK)
    assert "exited with code 2" in check(case, 2)


def test_percentiles_report_sample_count():
    assert harness.percentiles([4.0, 1.0, 3.0, 2.0]) == {
        "count": 4, "p50": 2.5, "p90": pytest.approx(3.7)}
    assert harness.percentiles([])["count"] == 0


def _compute(argv):
    out = stdio.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def test_tracer_leaves_cli_output_byte_identical(tmp_path):
    (case,) = prepare(Workload(((12, "4/3", "csv"),), ()), seed=9, workdir=tmp_path)
    originals = [getattr(module, attr) for module, attr, _, _ in tracing.LAYERS]

    before = _compute(case.argv), case.output.read_bytes()
    with tracing.Tracer() as tracer:
        during = _compute(case.argv), case.output.read_bytes()
    after = _compute(case.argv), case.output.read_bytes()

    assert before == during == after
    assert [getattr(module, attr) for module, attr, _, _ in tracing.LAYERS] == originals
    names = [span.name for span in tracer.spans]
    assert names == ["cli.main", "io.read_signal", "fastpath.plan",
                     "oracle.naive_forward", "io.write_spectrum"]
    assert [span.error for span in tracer.spans] == [False, False, True, False, False]


def test_traced_loop_counts_and_coverage(tmp_path):
    cases = prepare(Workload(((64, "1/4", None), (64, "2", None), (64, "8", None))),
                    seed=1, workdir=tmp_path)
    with tracing.Tracer() as tracer:
        run = harness.closed_loop(cases, 0.0, np.random.default_rng(0),
                                  harness.Calibration(arrays=True), tracer)
    assert run["failures"] == [] and run["attempted"] == 3
    metrics = tracing.layer_metrics(tracer, 1.0, 1.0)
    expected_mults = sum(fastpath.predicted_mults(fastpath.plan(64, case.alpha)) for case in cases)
    assert metrics["fastpath.complex_mults"] == (expected_mults / 3, "count/req")
    assert metrics["fastpath.plan.accept_ratio"] == (1.0, "ratio")
    assert metrics["io.read_signal.calls"] == (0.0, "count/req")
    assert 0.0 < metrics["trace.coverage"][0] <= 1.0


def test_count_mismatch_is_a_named_failure(tmp_path, monkeypatch):
    cases = prepare(Workload(((64, "2", None),)), seed=1, workdir=tmp_path)
    monkeypatch.setattr(fastpath, "predicted_adds", lambda p: -1)
    with tracing.Tracer() as tracer:
        run = harness.closed_loop(cases, 0.0, np.random.default_rng(0),
                                  harness.Calibration(arrays=True), tracer)
    (failure,) = run["failures"]
    assert failure.startswith("count_mismatch N=64 alpha=2/1")


def test_failed_request_is_counted(tmp_path):
    (case,) = prepare(Workload(((16, "2", "csv"),), ()), seed=1, workdir=tmp_path)
    case.argv[case.argv.index("--input") + 1] = str(tmp_path / "absent.csv")
    run = harness.closed_loop([case], 0.0, np.random.default_rng(0),
                              harness.Calibration(arrays=False))
    assert run["attempted"] == 1
    assert run["failures"] == ["wrong_output N=16 alpha=2/1: compute exited with code 2"]
