"""Regression rows: ``logtrig verify`` invocations that each pin a past fix,
run in process through ``cli.main`` with their required exit status.

Each row is the argument list after ``verify`` and the status the command
must exit with.  ``--jobs 2`` forks one child, as the installed command
would.
"""

import pytest

from logtrig.cli import main

TIGHT = ("--rtol", "1e-10", "--atol", "1e-12")

ROWS = [
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
