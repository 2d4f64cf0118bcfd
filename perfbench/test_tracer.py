"""Self-checks of the benchmark's tracer and input generation.

    python3 -m pytest perfbench -q

These tests import the package from ``src/`` next to this directory.
"""

import contextlib
import importlib
import io
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import logtrig  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def _bound(module_name, attr):
    return getattr(importlib.import_module(module_name), attr)


def test_evaluations_seen_by_tracer_equal_row_evaluations():
    with tracing.Tracer() as tracer:
        report = logtrig.run_verification(logtrig.RunConfig(jobs=1))
    layers = tracing.layer_metrics(tracer)
    row_evals = sum(row.evaluations for row in report.rows)
    assert layers["quadrature.interior.evals"] > 0
    assert layers["quadrature.tail.evals"] > 0
    assert (layers["quadrature.interior.evals"]
            + layers["quadrature.tail.evals"]) == row_evals
    evaluated = sum(row.status != "skipped" for row in report.rows)
    assert len([s for s in tracer.spans if s[0] == "catalog.verify_case"]) == evaluated


def test_wrappers_sit_where_names_are_looked_up_and_come_off():
    looked_up = [
        ("logtrig.report", "verify_case"),
        ("logtrig.report", "run_verification"),
        ("logtrig.catalog", "modulus_from_alpha"),
        ("logtrig.catalog", "integrate_endpoint_oscillatory"),
        ("logtrig.catalog", "product_one_minus"),
        ("logtrig.catalog", "gamma_fn"),
        ("logtrig.catalog", "evaluate_lhs"),
        ("logtrig.quadrature", "integrate_adaptive"),
        ("logtrig.solver", "agm"),
        ("logtrig.cli", "render_report"),
    ]
    before = {name: _bound(*name) for name in looked_up}
    tracer = tracing.Tracer().install()
    try:
        assert tracer.missing == []
        for name in looked_up:
            assert _bound(*name).__wrapped__ is before[name], name
    finally:
        tracer.uninstall()
    for name in looked_up:
        assert _bound(*name) is before[name], name


def test_tracer_reaches_catalog_module_despite_function_shadowing_it():
    # the package attribute is the catalog() function, not the module
    assert callable(logtrig.catalog) and not hasattr(logtrig.catalog, "evaluate_rhs")
    case = logtrig.case_by_id("T2")
    with tracing.Tracer() as tracer:
        logtrig.evaluate_rhs(case, {"alpha": 2.0})
    names = [s[0] for s in tracer.spans]
    assert names[0] == "catalog.evaluate_rhs"
    assert "solver.modulus_from_alpha" in names
    assert tracer.counters["elliptic.agm"][0] > 0


def test_cli_rows_payload_is_render_rows_json():
    cli = importlib.import_module("logtrig.cli")
    report_mod = importlib.import_module("logtrig.report")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", "--case", "T2,INTRO-4", "--alpha", "1,2",
                         "--format", "json", "--jobs", "1"])
    report = logtrig.run_verification(logtrig.RunConfig(
        case_filter=("T2", "INTRO-4"), alpha_grid=(1.0, 2.0)))
    summary = workloads.check_cli_output(code, out.getvalue())
    assert summary["payload_sha256"] == workloads.sha256_text(
        report_mod.render_rows_json(report.rows))


def test_inputs_repeat_for_a_seed_and_cover_the_range():
    a = workloads.make_inputs("offgrid-alpha", 7)
    assert a == workloads.make_inputs("offgrid-alpha", 7)
    assert a["params_sha256"] != workloads.make_inputs("offgrid-alpha", 8)["params_sha256"]
    alphas = a["alphas"]
    lo, hi = workloads.ALPHA_RANGE
    assert len(set(alphas)) == len(alphas) == workloads.OFFGRID_ALPHAS
    assert all(lo <= x < hi for x in alphas)
    assert alphas == sorted(alphas)
