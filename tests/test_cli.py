"""Command line interface and report serialization."""

import csv
import importlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

import logtrig
import logtrig.cli
import logtrig.report
from logtrig.cli import _build_parser, main
from logtrig.errors import AccuracyError, DomainError
from logtrig.quadrature import QuadratureResult
from logtrig.report import (CSV_COLUMNS, RunConfig, render_csv, render_json,
                            render_report, render_rows_json, run_verification)

PI = math.pi
T2_RHS_1 = 0.714578575770829485


def test_verify_single_case_json(tmp_path):
    out = tmp_path / "report.json"
    code = main(["verify", "--case", "T2", "--alpha", "1,2",
                 "--format", "json", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["version"]
    assert payload["summary"]["pass"] == 2
    assert payload["summary"]["total"] == 2
    rows = payload["rows"]
    assert [r["params"]["alpha"] for r in rows] == [1.0, 2.0]
    assert all(r["pass"] for r in rows)
    assert abs(rows[0]["rhs"] - T2_RHS_1) < 1e-13


def test_verify_skips_out_of_domain(tmp_path, capsys):
    code = main(["verify", "--case", "T1-A", "--alpha", "0.05",
                 "--format", "json", "--out", str(tmp_path / "r.json")])
    assert code == 0
    payload = json.loads((tmp_path / "r.json").read_text())
    assert payload["summary"]["skipped"] == 1
    assert payload["rows"][0]["status"] == "skipped"
    assert payload["rows"][0]["lhs"] is None


def test_verify_unknown_case_is_usage_error(capsys):
    assert main(["verify", "--case", "NOT-A-CASE"]) == 2


def test_verify_forced_failure_exit_code(monkeypatch, tmp_path):
    # EX-2 matches its closed form to 1 ulp (1.1e-16), but at rtol 1e-16
    # its estimate, 3.3e-14, exceeds the tolerance, 7.8e-17: an error row,
    # exit 3, since neither a pass nor a fail can be shown
    args = ["verify", "--case", "EX-2", "--format", "json", "--jobs", "1",
            "--out", str(tmp_path / "r.json")]
    assert main(args + ["--rtol", "1e-16", "--atol", "1e-18"]) == 3
    # a genuine failure, an lhs shifted by 1e-3, far beyond the tolerance
    # plus the estimate, exits 1
    catalog_module = importlib.import_module("logtrig.catalog")
    integrate = catalog_module.evaluate_lhs

    def shifted(case, params, tolerance):
        lhs, cost = integrate(case, params, tolerance)
        return lhs + 1e-3, cost

    monkeypatch.setattr(catalog_module, "evaluate_lhs", shifted)
    assert main(args) == 1


@pytest.mark.parametrize("command", (
    ["verify", "--case", "DISC-IM", "--alpha", "0.035", "--jobs", "1"],
    ["eval", "DISC-IM", "--alpha", "0.035"]))
def test_disc_im_deep_tail_ends_in_a_verdict(command):
    # the tail runs past |w| = 710 alpha, where sinh(w / alpha) overflowed
    # into a traceback; below alpha = 1/6 the closed form counts the poles
    # the path encloses, so the row passes
    assert main(command) == 0


@pytest.mark.parametrize("case_id", ("DISC-P3", "DISC-P4"))
def test_disc_p34_small_alpha_passes(case_id, capsys):
    # sinh(x / alpha) overflowed on (0, pi) for alpha below about 0.0044
    assert main(["eval", case_id, "--alpha", "0.004"]) == 0
    assert "evaluation failed" not in capsys.readouterr().out


@pytest.mark.parametrize("alpha", ("0.002", "0.0045", "0.01"))
def test_s3_t6_small_alpha_passes(alpha, capsys):
    # sinh((pi - 6x) / 2 alpha) over the unscaled cosh + cos overflowed below
    # alpha = 0.011; the closed form, summed from alpha, needs no nome, whose
    # route stops at alpha = 0.0044
    assert main(["eval", "S3-T6", "--alpha", alpha]) == 0
    assert "evaluation failed" not in capsys.readouterr().out


def test_disc_l1_small_alpha_ends_in_a_verdict(capsys):
    # sinh(x / 2 alpha)^2 in the unscaled denominator overflowed below alpha
    # = 0.0022; there the closed form adds the residues of the 55 poles its
    # path encloses, and the row passes
    assert main(["eval", "DISC-L1", "--alpha", "0.002"]) == 0
    out = capsys.readouterr().out
    assert "status  = pass" in out
    assert "evaluation failed" not in out


def test_verify_sqrt_literals(tmp_path):
    out = tmp_path / "r.json"
    assert main(["verify", "--case", "EX-1", "--format", "json",
                 "--out", str(out)]) == 0
    assert main(["verify", "--case", "T2", "--alpha", "sqrt3,sqrt2",
                 "--format", "json", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    alphas = [r["params"]["alpha"] for r in payload["rows"]]
    assert alphas == sorted([math.sqrt(2.0), math.sqrt(3.0)])


def test_verify_complex_rows_serialize(tmp_path):
    out = tmp_path / "r.json"
    assert main(["verify", "--case", "APPA", "--format", "json",
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    done = [r for r in payload["rows"] if r["status"] == "pass"]
    assert done
    assert {"re", "im"} == set(done[0]["lhs"])


def test_csv_columns_and_content(tmp_path):
    out = tmp_path / "r.csv"
    assert main(["verify", "--case", "THETA2", "--format", "csv",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    first = lines[1].split(",")
    assert first[0] == "THETA2"
    assert first[1] == "theta;a"


def test_csv_complex_cells_read_back_exactly():
    # SINE0's imaginary parts are positive and APPA's of both signs: each
    # cell must carry its sign to parse as the row's value
    report = run_verification(RunConfig(case_filter=("SINE0", "APPA"),
                                        jobs=1))
    cells = [(r["lhs"], r["rhs"])
             for r in csv.DictReader(io.StringIO(render_csv(report)))]
    assert len(cells) == len(report.rows)
    complex_rows = 0
    for row, (lhs, rhs) in zip(report.rows, cells):
        if row.status == "skipped":
            continue
        assert complex(lhs) == row.lhs and complex(rhs) == row.rhs
        complex_rows += isinstance(row.lhs, complex) and row.lhs.imag > 0
    assert complex_rows > 0


def test_table_output(capsys):
    code = main(["verify", "--case", "T2", "--alpha", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "pass 1  fail 0" in out


def test_table_complex_cell_reads_a_plus_bj():
    report = run_verification(RunConfig(case_filter=("THETA2",),
                                        theta_grid=(-0.4,), a_grid=(0.3,),
                                        jobs=1))
    lhs = report.rows[0].lhs
    assert lhs.imag > 0
    cell = render_report(report, "table").splitlines()[1].split()[3]
    assert cell == "%s+%sj" % (format(lhs.real, ".10g"),
                               format(lhs.imag, ".10g"))
    assert complex(cell) == pytest.approx(lhs, rel=1e-9)


def test_table_parity_real_cell_reads_as_real(capsys):
    # SINE's value is i times a real integral: a complex row whose imaginary
    # part is zero to rounding shows its real part alone
    assert isinstance(logtrig.evaluate_rhs(logtrig.case_by_id("SINE"),
                                           {"a": 0.3}), complex)
    assert main(["verify", "--case", "SINE", "--a", "0.3", "--jobs", "1"]) == 0
    cells = capsys.readouterr().out.splitlines()[1].split()
    assert cells[2:4] == ["2.250665999", "2.250665999"]


def test_skipped_and_error_rows_render_empty_cells(capsys):
    # a row without values shows "-" in the table and empty CSV cells
    assert main(["verify", "--case", "T1-B", "--alpha", "0.2,1",
                 "--jobs", "1"]) == 0
    skipped = capsys.readouterr().out.splitlines()[1].split()
    assert skipped == ["T1-B", "alpha=0.2", "-", "-", "-", "skipped", "0"]
    # T2's nome underflows at alpha = 300: an error row
    assert main(["verify", "--case", "T2", "--alpha", "300", "--format", "csv",
                 "--jobs", "1"]) == 3
    (cells,) = csv.DictReader(io.StringIO(capsys.readouterr().out))
    assert [cells[k] for k in ("lhs", "rhs", "abs_err", "rel_err")] == [""] * 4
    assert (cells["pass"], cells["evaluations"]) == ("error", "0")


def test_eval_fixed_case(capsys):
    assert main(["eval", "EX-1"]) == 0
    out = capsys.readouterr().out
    assert "1.10243" in out
    assert "pass" in out


def test_eval_sine0(capsys):
    assert main(["eval", "SINE0"]) == 0
    out = capsys.readouterr().out
    assert "1.7016960" in out


def test_eval_domain_rejection(capsys):
    assert main(["eval", "T2", "--alpha", "0.1"]) == 2
    assert "outside" in capsys.readouterr().out


def test_eval_at_a_tight_tolerance_reaches_a_verdict(capsys):
    # a tail chunk asked for less than rounding delivers and ran into the
    # subdivision limit ("err 1.556e-15"); the closed form is exact to a
    # few ulps here
    case, params = logtrig.case_by_id("DISC-P4"), {"alpha": 6.563841968171017}
    assert main(["eval", "DISC-P4", "--alpha", str(params["alpha"]),
                 "--rtol", "1e-10", "--atol", "1e-12"]) == 0
    assert "status  = pass" in capsys.readouterr().out
    rhs = logtrig.evaluate_rhs(case, params)
    lhs, cost = logtrig.evaluate_lhs(case, params, max(1e-12, 1e-10 * abs(rhs)))
    assert abs(lhs - rhs) <= cost.error_estimate


def test_eval_missing_parameter(capsys):
    assert main(["eval", "T2"]) == 2


def test_eval_closed_form_failure_runs_no_quadrature(monkeypatch, capsys):
    # below alpha = 0.002 S3-T6's closed-form sum runs past its term limit;
    # the row is an error before the integral is asked for
    def no_lhs(*args, **kwargs):
        raise AssertionError("the quadrature side ran")

    monkeypatch.setattr(sys.modules["logtrig.catalog"], "evaluate_lhs", no_lhs)
    assert main(["eval", "S3-T6", "--alpha", "0.0005"]) == 3
    out = capsys.readouterr().out
    assert "evaluation failed: " in out and "did not converge" in out


@pytest.mark.parametrize("argv, flag", (
    (["eval", "EX-1", "--alpha", "2"], "--alpha"),
    (["eval", "T2", "--alpha", "2", "--a", "5"], "--a"),
))
def test_eval_rejects_a_parameter_the_case_does_not_take(capsys, argv, flag):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert f"does not take {flag}" in captured.err
    assert "lhs" not in captured.out


def test_params_command(capsys):
    assert main(["params", "--alpha", "1"]) == 0
    out = capsys.readouterr().out
    assert "k = 0.7071067811865" in out
    assert main(["params", "--alpha", "2"]) == 0
    out = capsys.readouterr().out
    assert "k = 0.1715728752538" in out
    assert main(["params", "--alpha", "0"]) == 2
    # one of (k, k') rounds to 1; log k' keeps the nome's digits
    for alpha in ("20", "0.05"):
        assert main(["params", "--alpha", alpha]) == 0
        assert "log_k_prime = -" in capsys.readouterr().out
    # the nome exp(-300 pi) underflows
    assert main(["params", "--alpha", "300"]) == 3


def test_contour_command(tmp_path):
    out = tmp_path / "path.csv"
    assert main(["contour", "--alpha", "1", "--n-points", "129",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x,re_z,im_z,integral_re,integral_im"
    assert len(lines) == 130
    mid = lines[65].split(",")
    assert abs(float(mid[0])) < 1e-15
    assert abs(float(mid[1]) - math.log(2.0)) < 1e-15
    assert abs(float(mid[3]) - T2_RHS_1) < 1e-8
    assert abs(float(mid[4])) < 1e-9
    assert float(lines[1].split(",")[1]) < -3.0


def test_contour_checks_point_count_before_integrating(monkeypatch, capsys):
    def integrate(alpha):
        raise AssertionError("contour_trace ran before the count was checked")

    monkeypatch.setattr(logtrig.cli, "contour_trace", integrate)
    assert main(["contour", "--alpha", "1", "--n-points", "3"]) == 2
    assert "n_points >= 64" in capsys.readouterr().err


def test_contour_domain_error(capsys):
    assert main(["contour", "--alpha", "0.1"]) == 2


def test_contour_rejects_non_finite_alpha(capsys):
    for bad in ("nan", "inf"):
        assert main(["contour", "--alpha", bad]) == 2
    assert "finite" in capsys.readouterr().err


def test_verify_rejects_non_finite_value(capsys):
    assert main(["verify", "--case", "DISC-P1", "--a", "inf",
                 "--format", "json", "--jobs", "1"]) == 2
    assert "finite" in capsys.readouterr().err


def test_verify_at_huge_alpha_ends_in_error_rows(capsys):
    # in domain, but 2 pi alpha overflows the tail period at 1e308: error
    # rows that name the failure, where a traceback ended the sweep before.
    # At 1e200 every row passes, T1-PA's too, whose kernel took the log of
    # an underflowed 0 there before it went through hypot
    assert main(["verify", "--case", "T1-PA,DISC-P4,S3-T6", "--alpha",
                 "1e200,1e308", "--format", "json", "--jobs", "1"]) == 3
    rows = {(r["case_id"], r["params"]["alpha"]): r
            for r in json.loads(capsys.readouterr().out)["rows"]}
    for case_id in ("T1-PA", "DISC-P4", "S3-T6"):
        assert rows[case_id, 1e200]["status"] == "pass"
        assert "period" in rows[case_id, 1e308]["detail"]
    assert all(row["status"] == "error" for key, row in rows.items()
               if key[1] == 1e308)


def test_t1pa_closed_form_at_huge_alpha(capsys):
    # log(2 alpha^2) overflowed to inf above alpha = 1.34e154, and so did the
    # row tolerance; the closed form now takes log(alpha) alone
    assert main(["eval", "T1-PA", "--alpha", "1e155"]) == 0
    assert "status  = pass" in capsys.readouterr().out


def test_verify_rejects_an_unparsable_value(capsys):
    assert main(["verify", "--case", "T2", "--alpha", "abc", "--jobs", "1"]) == 2
    assert "cannot parse numeric value 'abc'" in capsys.readouterr().err


@pytest.mark.parametrize("flag, text", (
    ("--alpha", ""), ("--a", ","), ("--theta", " , "), ("--gamma", "")))
def test_verify_rejects_an_empty_grid_flag(flag, text, capsys):
    # an empty grid would check no row and report success
    assert main(["verify", flag, text, "--jobs", "1"]) == 2
    assert "no value" in capsys.readouterr().err
    # the library still takes an empty grid: zero rows, nothing failed
    report = run_verification(RunConfig(case_filter=("T2",), alpha_grid=(),
                                        jobs=2))
    assert report.rows == () and report.exit_status == 0


def test_io_error_status(tmp_path):
    missing_dir = tmp_path / "no" / "such" / "dir" / "r.json"
    code = main(["verify", "--case", "T2", "--alpha", "1",
                 "--format", "json", "--out", str(missing_dir)])
    assert code == 4


def test_usage_error_from_argparse():
    assert main(["verify", "--format", "yaml"]) == 2
    assert main([]) == 2


def test_reports_are_deterministic():
    # S3-T7 is out of domain at alpha 0.25 and 0.5: skipped rows go through
    # a forked run too
    cases = ("T2", "SINE0", "APPA", "DISC-P4", "S3-T7")
    config = RunConfig(case_filter=cases, jobs=1)
    first = render_rows_json(run_verification(config).rows)
    second = render_rows_json(run_verification(config).rows)
    assert first == second
    parallel = RunConfig(case_filter=cases, jobs=2)
    third = render_rows_json(run_verification(parallel).rows)
    assert first == third


def _count_forks(monkeypatch) -> list[int]:
    """Wrap the real ``os.fork``; the returned list collects child pids."""
    forks = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return forks


def test_forks_no_more_children_than_tasks(monkeypatch):
    # jobs=64 over 2 and 3 distinct integrals: the task count caps the
    # processes, so this forks 1 and then 2 children, never 63
    forks = _count_forks(monkeypatch)
    for alphas, children in (((1.0, 2.0), 1), ((1.0, 2.0, 3.0), 2)):
        config = RunConfig(case_filter=("T2",), alpha_grid=alphas, jobs=64)
        serial = RunConfig(case_filter=("T2",), alpha_grid=alphas, jobs=1)
        before = len(forks)
        assert (render_rows_json(run_verification(config).rows)
                == render_rows_json(run_verification(serial).rows))
        assert len(forks) - before == children


def _local_error(message):
    # pickle finds no class defined in a function, so it cannot send one
    class LocalOnly(Exception):
        pass

    return LocalOnly(message)


def _accuracy_error(message):
    # pickles, but does not load: its __init__ takes more than the message
    return AccuracyError(message, best=0.0, error_estimate=1.0)


@pytest.mark.parametrize("alpha, where, error, raised", (
    pytest.param(2.0, "child", DomainError, DomainError, id="2.0-child"),
    pytest.param(1.0, "parent", DomainError, DomainError, id="1.0-parent"),
    pytest.param(2.0, "child", _local_error, ChildProcessError,
                 id="2.0-child-unpicklable"),
    pytest.param(2.0, "child", _accuracy_error, ChildProcessError,
                 id="2.0-child-unloadable")))
def test_failing_share_fails_the_run_and_leaves_no_zombie(monkeypatch, alpha,
                                                           where, error,
                                                           raised):
    # with 2 tasks at jobs=2 the alpha = 1 task is this process's share and
    # the alpha = 2 task the forked child's
    real_verify = logtrig.report.verify_case

    def verify(case, params, **kwargs):
        if params.get("alpha") == alpha:
            raise error(f"raised in the {where}")
        return real_verify(case, params, **kwargs)

    forks = _count_forks(monkeypatch)
    monkeypatch.setattr(logtrig.report, "verify_case", verify)
    config = RunConfig(case_filter=("T2",), alpha_grid=(1.0, 2.0), jobs=2)
    mask = _affinity()
    with pytest.raises(raised, match=f"raised in the {where}") as info:
        run_verification(config)
    assert _affinity() == mask
    if where == "child":
        # the child's own traceback is the cause, down to the raising frame
        assert ', in verify\n' in str(info.value.__cause__)
    if raised is ChildProcessError:
        assert str(info.value).startswith(("LocalOnly: ", "AccuracyError: "))
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _affinity() -> set[int] | None:
    """This process's CPU mask, where the platform can set one."""
    if hasattr(os, "sched_setaffinity"):
        return os.sched_getaffinity(0)
    return None


@pytest.mark.skipif(len(_affinity() or ()) < 2,
                    reason="needs a CPU mask of at least 2 CPUs")
def test_forked_shares_run_on_different_cpus():
    # the parent's share and the child's each on one CPU of the caller's
    # mask, not both on the parent's; the caller's mask comes back whole
    mask = _affinity()
    parent, child = logtrig.report._run_forked(
        lambda task: sorted(os.sched_getaffinity(0)), [0, 1], 2)
    assert len(parent) == len(child) == 1
    assert parent != child
    assert set(parent + child) <= mask
    assert _affinity() == mask


def _refuse_affinity(pid, mask):
    raise OSError("sched_setaffinity refused")


@pytest.mark.parametrize("platform", ("no sched_setaffinity",
                                      "sched_setaffinity refuses"))
def test_unpinned_forked_run_matches_serial(monkeypatch, platform):
    # where a process cannot be pinned, the sweep forks and runs unpinned
    serial = RunConfig(case_filter=("T2",), alpha_grid=(1.0, 2.0), jobs=1)
    expected = render_rows_json(run_verification(serial).rows)
    if platform == "no sched_setaffinity":
        monkeypatch.delattr(os, "sched_setaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_setaffinity", _refuse_affinity,
                            raising=False)
    forks = _count_forks(monkeypatch)
    config = serial._replace(jobs=2)
    assert render_rows_json(run_verification(config).rows) == expected
    assert len(forks) == 1


ONE_CPU_RUNS = textwrap.dedent("""
    import os

    from logtrig.report import RunConfig, render_rows_json, run_verification

    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    mask = os.sched_getaffinity(0)
    config = RunConfig(case_filter=("T2", "EX-2"), alpha_grid=(1.0, 2.0))
    serial, forked = (
        render_rows_json(run_verification(config._replace(jobs=j)).rows)
        for j in (1, 2))
    print(serial == forked, os.sched_getaffinity(0) == mask)
""")


@pytest.mark.skipif(_affinity() is None, reason="needs sched_setaffinity")
def test_more_jobs_than_cpus_share_them_round_robin():
    # a mask of one CPU: every process is pinned to it, and it stays the mask
    assert _run_fresh(ONE_CPU_RUNS).split() == ["True", "True"]


def test_no_fork_platform_runs_serial(monkeypatch):
    def pipe():
        raise AssertionError("a run without os.fork opened a pipe")

    serial = RunConfig(case_filter=("T2",), alpha_grid=(1.0, 2.0), jobs=1)
    expected = render_rows_json(run_verification(serial).rows)
    monkeypatch.delattr(os, "fork")
    monkeypatch.setattr(os, "pipe", pipe)
    config = RunConfig(case_filter=("T2",), alpha_grid=(1.0, 2.0), jobs=2)
    assert render_rows_json(run_verification(config).rows) == expected


SERIAL_RUNS = textwrap.dedent("""
    import os
    import sys

    import logtrig
    from logtrig.cli import main
    from logtrig.report import RunConfig, run_verification

    logtrig.catalog()
    run_verification(RunConfig(case_filter=("T2", "EX-2"),
                               alpha_grid=(1.0, 2.0), jobs=1))
    logtrig.evaluate_rhs(logtrig.case_by_id("T2"), {"alpha": 2.0})
    assert main(["verify", "--case", "T2", "--alpha", "1,2", "--jobs", "1",
                 "--format", "json"]) == 0
    assert main(["eval", "EX-2"]) == 0
    assert main(["params", "--alpha", "sqrt3"]) == 0
    assert main(["contour", "--alpha", "1", "--out", os.devnull]) == 0
    print(sorted(m for m in ("concurrent.futures.process", "multiprocessing")
                 if m in sys.modules))
""")


FORKED_RUNS = textwrap.dedent("""
    import sys

    from logtrig.cli import main
    from logtrig.report import RunConfig, run_verification

    print("printed before the forked run")
    run_verification(RunConfig(case_filter=("T2", "EX-2"),
                               alpha_grid=(1.0, 2.0), jobs=2))
    assert main(["verify", "--case", "T2", "--alpha", "1,2", "--jobs", "2",
                 "--format", "json", "--out", sys.argv[1]]) == 0
    print(sorted(m for m in ("concurrent.futures.process", "multiprocessing")
                 if m in sys.modules))
""")


def _run_fresh(script: str, *args: str) -> str:
    """stdout of ``script`` in a fresh interpreter, stdout piped (so block
    buffered): this test process may have loaded a pool already."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("PYTHONUNBUFFERED", None)
    done = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_serial_runs_load_no_pool():
    assert _run_fresh(SERIAL_RUNS).splitlines()[-1] == "[]"


def test_forked_runs_load_no_pool_and_flush_nothing_twice(tmp_path):
    # the line sits unflushed in the stdout buffer while the run forks: a
    # child that flushed its copy would print it again
    out = _run_fresh(FORKED_RUNS, str(tmp_path / "r.json")).splitlines()
    assert out == ["printed before the forked run", "[]"]


def test_render_report_roundtrip_floats():
    config = RunConfig(case_filter=("T2",), alpha_grid=(1.0,), jobs=1)
    report = run_verification(config)
    payload = json.loads(render_json(report))
    row = payload["rows"][0]
    assert row["lhs"] == report.rows[0].lhs  # 17 significant digits round-trip
    csv_text = render_csv(report)
    assert str(report.rows[0].evaluations) in csv_text
    assert render_report(report, "table").startswith("case")


def test_render_rows_json_roundtrips_control_characters():
    detail = 'line\nbreak\ttab\r\x00\x1f "quoted" back\\slash α'
    row = run_verification(RunConfig(case_filter=("T2",), alpha_grid=(1.0,),
                                     jobs=1)).rows[0]._replace(detail=detail)
    assert json.loads(render_rows_json([row]))[0]["detail"] == detail


def test_render_json_document_layout():
    # the header and line breaks before the rows, byte for byte; the rows
    # themselves are pinned by the payload hash
    config = RunConfig(case_filter=("T2", "INTRO-1"),
                       alpha_grid=(math.sqrt(2.0), 0.8), a_grid=(-1.0, 0.3),
                       rtol=1e-9, jobs=1)
    text = render_json(run_verification(config))
    assert text[:text.index('"rows": ') + 8] == (
        '{\n"version": "0.1.0",\n'
        '"config": {"cases": ["T2", "INTRO-1"], '
        '"alpha_grid": [1.4142135623730951, 0.80000000000000004], '
        '"a_grid": [-1, 0.29999999999999999], '
        '"theta_grid": [-0.40000000000000002, 0, 0.78539816339744828], '
        '"gamma_grid": [0, 1, 2, 2.5], "rtol": 1.0000000000000001e-09, '
        '"atol": 1e-10, "jobs": 1},\n'
        '"summary": {"pass": 4, "fail": 0, "error": 0, "skipped": 0, '
        '"total": 4},\n'
        '"rows": ')
    assert text.endswith("\n]\n}\n")


def test_runconfig_validation():
    for kwargs in ({"rtol": -1.0}, {"rtol": math.inf}, {"rtol": math.nan},
                   {"atol": math.inf}, {"case_filter": ("BAD",)},
                   {"case_filter": ("DISC-P1",), "a_grid": (math.inf,)},
                   {"alpha_grid": (1.0, math.nan)}):
        with pytest.raises(DomainError):
            RunConfig(**kwargs)
    # a copy is checked as a new config is
    for kwargs in ({"jobs": 0}, {"rtol": math.nan}):
        with pytest.raises(DomainError):
            RunConfig()._replace(**kwargs)
    report = run_verification(RunConfig(case_filter=("EX-1",)))
    with pytest.raises(DomainError):
        render_report(report, "yaml")


def test_quadrature_result_copy_is_checked():
    # a _replace copy of a QuadratureResult is checked as RunConfig's is
    result = QuadratureResult(1.0, 0.0, 15, 0)
    assert result._replace(value=2.0) == QuadratureResult(2.0, 0.0, 15, 0)
    for kwargs in ({"error_estimate": -1.0}, {"evaluations": 0}):
        with pytest.raises(ValueError):
            result._replace(**kwargs)


def test_domain_error_during_evaluation_propagates(monkeypatch):
    # only the domain pre-check's DomainError turns a point into a skipped row
    def evaluate(*args, **kwargs):
        raise DomainError("raised while evaluating")

    monkeypatch.setattr(logtrig.report, "verify_case", evaluate)
    with pytest.raises(DomainError, match="while evaluating"):
        run_verification(RunConfig(case_filter=("T2",), alpha_grid=(1.0,)))


def test_non_finite_or_negative_tolerance_is_usage_error(capsys):
    for argv in (["verify", "--case", "T2", "--alpha", "1", "--rtol", "inf"],
                 ["verify", "--case", "T2", "--alpha", "1", "--rtol", "nan"],
                 ["eval", "T2", "--alpha", "1", "--rtol", "-1"],
                 ["eval", "T2", "--alpha", "1", "--atol", "inf"]):
        assert main(argv) == 2, argv
        assert "positive and finite" in capsys.readouterr().err, argv


def test_verify_jobs_default_counts_usable_cpus(monkeypatch):
    # the affinity mask, not the machine's CPU count, where the platform has one
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3},
                        raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert _build_parser().parse_args(["verify"]).jobs == 2
    monkeypatch.delattr(os, "sched_getaffinity")
    assert _build_parser().parse_args(["verify"]).jobs == 8
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _build_parser().parse_args(["verify"]).jobs == 1
