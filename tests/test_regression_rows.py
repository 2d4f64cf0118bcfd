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
]


@pytest.mark.parametrize("args, status", ROWS)
def test_regression_row(args, status, capsys):
    assert main(["verify", *args]) == status, capsys.readouterr().out
