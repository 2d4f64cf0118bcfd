"""Command line interface and report serialization."""

import json
import math
import os

import pytest

import logtrig.report
from logtrig.cli import _build_parser, main
from logtrig.errors import DomainError
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


def test_verify_forced_failure_exit_code(tmp_path):
    # EX-2 misses its closed form by 4.4e-15 relative, far above rtol
    code = main(["verify", "--case", "EX-2", "--rtol", "1e-16",
                 "--atol", "1e-18", "--format", "json",
                 "--out", str(tmp_path / "r.json")])
    assert code == 1


@pytest.mark.parametrize("command", (
    ["verify", "--case", "DISC-IM", "--alpha", "0.035", "--jobs", "1"],
    ["eval", "DISC-IM", "--alpha", "0.035"]))
def test_disc_im_deep_tail_ends_in_a_verdict(command):
    # the tail runs past |w| = 710 alpha, where sinh(w / alpha) overflowed
    # into a traceback; below alpha = 1/6 the first-branch closed form fails
    # (ROADMAP item 1)
    assert main(command) in (0, 1)


@pytest.mark.parametrize("case_id", ("DISC-P3", "DISC-P4"))
def test_disc_p34_small_alpha_passes(case_id, capsys):
    # sinh(x / alpha) overflowed on (0, pi) for alpha below about 0.0044
    assert main(["eval", case_id, "--alpha", "0.004"]) == 0
    assert "evaluation failed" not in capsys.readouterr().out


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


def test_table_output(capsys):
    code = main(["verify", "--case", "T2", "--alpha", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "pass 1  fail 0" in out


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


def test_eval_missing_parameter(capsys):
    assert main(["eval", "T2"]) == 2


def test_params_command(capsys):
    assert main(["params", "--alpha", "1"]) == 0
    out = capsys.readouterr().out
    assert "k = 0.7071067811865" in out
    assert main(["params", "--alpha", "2"]) == 0
    out = capsys.readouterr().out
    assert "k = 0.1715728752538" in out
    assert main(["params", "--alpha", "0"]) == 2


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
    # the pool too
    cases = ("T2", "SINE0", "APPA", "DISC-P4", "S3-T7")
    config = RunConfig(case_filter=cases, jobs=1)
    first = render_rows_json(run_verification(config).rows)
    second = render_rows_json(run_verification(config).rows)
    assert first == second
    parallel = RunConfig(case_filter=cases, jobs=2)
    third = render_rows_json(run_verification(parallel).rows)
    assert first == third


def test_render_report_roundtrip_floats():
    config = RunConfig(case_filter=("T2",), alpha_grid=(1.0,), jobs=1)
    report = run_verification(config)
    payload = json.loads(render_json(report))
    row = payload["rows"][0]
    assert row["lhs"] == report.rows[0].lhs  # 17 significant digits round-trip
    csv_text = render_csv(report)
    assert str(report.rows[0].evaluations) in csv_text
    assert render_report(report, "table").startswith("case")


def test_runconfig_validation():
    for kwargs in ({"rtol": -1.0}, {"rtol": math.inf}, {"rtol": math.nan},
                   {"atol": math.inf}, {"case_filter": ("BAD",)},
                   {"case_filter": ("DISC-P1",), "a_grid": (math.inf,)},
                   {"alpha_grid": (1.0, math.nan)}):
        with pytest.raises(DomainError):
            RunConfig(**kwargs)
    report = run_verification(RunConfig(case_filter=("EX-1",)))
    with pytest.raises(DomainError):
        render_report(report, "yaml")


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
