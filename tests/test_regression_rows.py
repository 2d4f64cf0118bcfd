"""Regression rows: ``logtrig verify`` invocations that each pin a past fix,
run in process through ``cli.main`` with their required exit status.

Each row is the argument list after ``verify`` and the status the command
must exit with.  ``--jobs 2`` forks one child, as the installed command
would.
"""

import pytest

from logtrig.cli import main

TIGHT = ("--rtol", "1e-10", "--atol", "1e-12")
LOOSE = ("--rtol", "1e-6", "--atol", "1e-8")

ROWS = [
    # the closed forms past their first branch, which add the residues of
    # the poles their path encloses: every row must pass
    pytest.param(["--case", "DISC-IM,DISC-L1,DISC-L2",
                  "--alpha", "0.013,0.05,0.09,0.15,0.2", "--jobs", "2"], 0,
                 id="enclosed-poles"),
    # EX-2 below its quadrature's rounding floor: its error is 1 ulp, but
    # its estimate exceeds the tolerance, so the row is an error row, not a
    # fail, and the command exits 3
    pytest.param(["--case", "EX-2", "--rtol", "1e-16", "--atol", "1e-18"], 3,
                 id="ex2-rounding-floor"),
    # DISC-L1/L2 where the count of enclosed poles passes the Lambert sum's
    # 20,000-term limit: error rows that name the sum, not a traceback, and
    # the command exits 3
    pytest.param(["--case", "DISC-L1,DISC-L2", "--alpha", "3e-6,1e-6", "--jobs", "2"],
                 3, id="lambert-term-limit"),
    # T1-PA where alpha^2 overflows: the row must pass
    pytest.param(["--case", "T1-PA", "--alpha", "1e155"], 0, id="t1pa-alpha-squared"),
    # the cosh - cos kernels at huge alpha, where the sums of squares in
    # their denominators fall below the normal range: every row must pass
    pytest.param(["--case", "T1-PA,T4-PA,DISC-L1,DISC-IM",
                  "--alpha", "1e157,1e159,3e160,1e161,1e200,1e300", *TIGHT,
                  "--jobs", "2"], 0, id="huge-alpha"),
    # the whole default sweep at a loose tolerance, where the share of it
    # spent in the quadrature is largest, and at a tight one, where the
    # tails run longest: every row must pass, its estimate within tolerance
    pytest.param([*LOOSE, "--jobs", "2"], 0, id="loose-sweep"),
    pytest.param([*TIGHT, "--jobs", "2"], 0, id="tight-sweep"),
    # the closed forms next to a = 0, which sum the series of the 1/a and
    # 1/a^2 terms they cancel: every row must pass
    pytest.param(["--case", "INTRO-2,INTRO-3,INTRO-4,SINE,COS",
                  "--a=-3e-3,1e-5,2e-8", "--gamma", "0,2.5", *TIGHT, "--jobs", "2"],
                 0, id="a-near-zero"),
    # the closed forms summed from alpha alone, where the nome of alpha (or
    # of 1/alpha, for S3-T6) underflows: every row must pass
    pytest.param(["--case", "T1-PA,T1-PB,T4-PA,T4-PB,S3-T6,S3-T7,DISC-L1,DISC-L2",
                  "--alpha", "120,300,1000", "--jobs", "2"], 0,
                 id="nome-underflow"),
    pytest.param(["--case", "S3-T6", "--alpha", "0.002,0.003", "--jobs", "2"], 0,
                 id="s3t6-nome-underflow"),
    # the cases whose interior cuts the engine places alone, by its grading
    # cuts or by bisection, at a tight tolerance: every row must pass
    pytest.param(["--case", "INTRO-1,INTRO-2,INTRO-3,INTRO-4,SINE,SINE0,COS,"
                  "THETA2,APPA,DISC-IM,S3-T6,EX-3", *TIGHT, "--jobs", "2"], 0,
                 id="engine-placed-cuts"),
    # the two-ended paths, each folded onto the half that ends where its log
    # term diverges, at a tight tolerance: every row must pass
    pytest.param(["--case", "THETA2,APPA,S3-T5A,S3-T5B,S3-T6,EX-3,S3-T7,DISC-P1,"
                  "DISC-P2,DISC-P3,DISC-P4", "--a=-12.5,-3.7,0.9,8.5,13",
                  "--theta=-1.2,0.7", "--alpha", "0.05,0.4,2.6,9.3", *TIGHT,
                  "--jobs", "2"], 0, id="two-ended-paths"),
    # long-period interior panels, graded toward each tail split, at a tight
    # tolerance: every row must pass
    pytest.param(["--case", "T1-A,T2,T4-B,S3-T6,DISC-CONTOUR,DISC-L2",
                  "--alpha", "0.3,1.9,7.42,11,19.5", *TIGHT, "--jobs", "2"], 0,
                 id="long-period-interior"),
    # long-period tails on the sin paths, which close after one or two
    # chunks, so a close that stops too early shows here first, at a tight
    # tolerance: every row must pass
    pytest.param(["--case", "S3-T5A,S3-T5B,S3-T6,EX-3,S3-T7",
                  "--alpha", "5.5,9.64,13.93,16.76,24.68", *TIGHT, "--jobs", "2"], 0,
                 id="long-period-sin-path"),
    # DISC-IM at tiny alpha, where its kernel turns from -1 to 1 across
    # about alpha in t around w = 0: every row must pass
    pytest.param(["--case", "DISC-IM", "--alpha", "1e-6,3e-5,1e-4,4e-4", *TIGHT,
                  "--jobs", "2"], 0, id="disc-im-tiny-alpha"),
    # DISC-IM on each side of |j alpha| = 1 for j = 64, 16 and 4, where its
    # ladder drops the rung j alpha: every row must pass
    pytest.param(["--case", "DISC-IM", "--alpha", "0.0155,0.0157,0.062,0.063,0.249,0.251",
                  *TIGHT, "--jobs", "2"], 0, id="disc-im-ladder-rungs"),
    # the pole cases at a tight tolerance, from the smallest alpha of the
    # scans to where DISC-P3's value is below 1e-14, and DISC-P4 at 6.56,
    # where a tail chunk's request meets the rounding of its sum: every row
    # must pass, none may end as an error row
    pytest.param(["--case", "DISC-P3,DISC-P4", "--alpha", "0.004,0.03,5.78,6.37,6.56",
                  *TIGHT, "--jobs", "2"], 0, id="disc-p34-scan-range"),
    # the pole cases at long periods, whose tail chunks subtract each pole
    # within a step and are cut at no half period: every row must pass
    pytest.param(["--case", "DISC-P3,DISC-P4", "--alpha", "0.45,0.9,2.6,9.3,17,25,40",
                  *TIGHT, "--jobs", "2"], 0, id="disc-p34-long-period"),
    # short-period tails, in chunks of whole periods at least 0.5 long in
    # t, at a tight tolerance: every row must pass, its estimate within
    # tolerance
    pytest.param(["--case", "S3-T6,DISC-P3,DISC-P4", "--alpha",
                  "0.001,0.002,0.0041,0.01,0.05", *TIGHT, "--jobs", "2"], 0,
                 id="short-period-tails"),
]


@pytest.mark.parametrize("args, status", ROWS)
def test_regression_row(args, status, capsys):
    assert main(["verify", *args]) == status, capsys.readouterr().out
