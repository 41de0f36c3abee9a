"""``tools/same_bytes.py``'s masking and comparison, on canned outputs.

What it runs, and the bytes those runs give, depend on the numpy build, so
no run and no digest is checked here.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

from same_bytes import differences, mask_bench_csv, mask_demo_walls, outcome  # noqa: E402

REPORT = b'{\n  "records": [\n    {\n      "N": 64,\n      "mults": 12,\n      "wall_ns": %d,\n' \
         b'      "reps": 20\n    }\n  ]\n}\n'
RECORDS = b"N,alpha_p,alpha_q,method,mults,adds,wall_ns,reps\n64,1,8,fft,%d,80,%d,20\n"
DEMO_04 = ("     N  alpha        method       mults      wall\n"
           "    64    1/8           fft          12  %s us\n"
           "all claims passed\n")


def canned(label="bench", code=0, stdout="claim gt1: pass\n", stderr="", **files):
    return outcome(label, code, stdout, stderr, files)


def test_same_outcomes_do_not_differ():
    assert differences(canned(), canned()) == []


def test_bench_wall_times_are_masked():
    before = canned(**{"report.json": REPORT % 39142, "records.csv": RECORDS % (12, 39142)})
    after = canned(**{"report.json": REPORT % 51, "records.csv": RECORDS % (12, 7)})
    assert differences(before, after) == []


def test_bench_counts_are_not_masked():
    before = canned(**{"records.csv": RECORDS % (12, 39142)})
    after = canned(**{"records.csv": RECORDS % (13, 39142)})
    [line] = differences(before, after)
    assert line.startswith("  file records.csv: md5 ")


def test_the_records_mask_keeps_every_other_cell():
    masked = mask_bench_csv(RECORDS % (12, 39142))
    assert masked == b"N,alpha_p,alpha_q,method,mults,adds,wall_ns,reps\n64,1,8,fft,12,80,0,20\n"


def test_only_a_wall_time_named_so_is_masked():
    # A spectrum file holds no wall times: its bytes count as they are.
    before = canned(**{"spectrum.csv": b"m,freq\n0,0.0\n"})
    after = canned(**{"spectrum.csv": b"m,freq\n0,0.5\n"})
    assert differences(before, after) != []
    assert canned("verify", stdout="a 1.0 us\n") != canned("verify", stdout="a 2.0 us\n")


def test_demo_04_walls_are_masked():
    label = "demo 04_benchmark_report.py"
    assert differences(canned(label, stdout=DEMO_04 % "106.7"),
                       canned(label, stdout=DEMO_04 % "  6.2")) == []
    assert mask_demo_walls(DEMO_04 % "106.7").splitlines()[1].endswith("12<wall>")


def test_each_difference_is_named():
    before = canned("compute", 4, "", "error: no pair; use the naive transform (try it)\n",
                    **{"spectrum.csv": b"x"})
    after = canned("compute", 2, "", "error: no pair; use the naive transform\n")
    lines = differences(before, after)
    assert lines[0] == "  exit 4 -> 2"
    assert "  stderr: -error: no pair; use the naive transform (try it)" in lines
    assert "  stderr: +error: no pair; use the naive transform" in lines
    assert lines[-1].startswith("  file spectrum.csv: md5 ") and lines[-1].endswith("-> absent")
