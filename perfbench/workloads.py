"""Workload inputs, timed passes and the correctness gate.

Inputs are made from the seed here, in the benchmark; the library only
ever receives the generated parameter lists.  ``make_inputs`` needs no
logtrig import, so the parent process of ``run.py`` stays light; the pass functions run
inside a fresh worker process that has imported the package.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import math
import random
import sys
from pathlib import Path

WORKLOADS = ("default-sweep", "offgrid-alpha", "closed-forms", "cli-verify")

ALPHA_RANGE = (0.1, 12.0)
OFFGRID_ALPHAS = 30
CLOSED_FORM_ALPHAS = 300
REFERENCE_FILE = Path(__file__).with_name("reference_lhs.json")


class CheckFailed(Exception):
    """The program's output broke the benchmark's correctness gate."""


def stratified_log_uniform(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    """n distinct values, one drawn log-uniformly inside each of n equal
    slices of [log lo, log hi).  Every value is log-uniform over the range,
    and each seed covers the range evenly, so per-seed cost and the number
    of values landing in the small-alpha defect region vary little."""
    span = math.log(hi / lo)
    return [lo * math.exp(span * (i + rng.random()) / n) for i in range(n)]


def make_inputs(workload: str, seed: int) -> dict:
    rng = random.Random(seed)
    if workload == "offgrid-alpha":
        alphas = stratified_log_uniform(rng, OFFGRID_ALPHAS, *ALPHA_RANGE)
    elif workload == "closed-forms":
        alphas = stratified_log_uniform(rng, CLOSED_FORM_ALPHAS, *ALPHA_RANGE)
    else:
        alphas = []      # default grids; nothing depends on the seed
    inputs = {"workload": workload, "seed": seed, "alphas": alphas}
    inputs["params_sha256"] = sha256_text(json.dumps(
        [format(a, ".17g") for a in alphas]))
    return inputs


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _finite(value) -> bool:
    if isinstance(value, complex):
        return math.isfinite(value.real) and math.isfinite(value.imag)
    return isinstance(value, float) and math.isfinite(value)


def _row_key(case_id: str, params: dict) -> str:
    return case_id + "|" + ",".join(
        "%s=%s" % (k, format(v, ".17g")) for k, v in sorted(params.items()))


# ---------------------------------------------------------------------------
# checks shared by the library passes and the CLI output


def check_rows(rows, rtol: float, atol: float, all_must_pass: bool) -> dict:
    """Gate the rows of one sweep; return their summary.

    Every row must carry one of the four outcomes, and a pass/fail verdict
    must agree with its own numbers.  On the default grids every evaluated
    row must pass.  Off-grid failures are returned, not hidden.
    """
    counts = {"pass": 0, "fail": 0, "error": 0, "skipped": 0}
    failing = []
    row_evals = 0
    for row in rows:
        if row.status not in counts:
            raise CheckFailed(f"{row.case_id}: unknown status {row.status!r}")
        counts[row.status] += 1
        row_evals += row.evaluations
        if row.status in ("pass", "fail"):
            if not (_finite(row.lhs) and _finite(row.rhs)):
                raise CheckFailed(f"{row.case_id} {row.params}: non-finite value")
            err = abs(row.lhs - row.rhs)
            ok = err <= max(atol, rtol * abs(row.rhs))
            if ok != (row.status == "pass") or err != row.abs_err:
                raise CheckFailed(f"{row.case_id} {row.params}: verdict "
                                  f"{row.status} disagrees with its numbers")
        if row.status in ("fail", "error"):
            failing.append([row.case_id, row.params.get("alpha"), row.status])
    evaluated = counts["pass"] + counts["fail"] + counts["error"]
    if evaluated == 0:
        raise CheckFailed("no row was evaluated")
    if all_must_pass and failing:
        raise CheckFailed(f"{len(failing)} rows did not pass: {failing[:5]}")
    return {"counts": counts, "evaluated": evaluated, "failing": failing,
            "row_evals": row_evals}


def rows_payload(cli_json: str) -> str:
    """The rows array exactly as ``render_rows_json`` wrote it."""
    start = cli_json.index('"rows": ') + len('"rows": ')
    end = cli_json.rindex("\n}")
    return cli_json[start:end]


class _JsonRow:
    """Just the fields ``check_rows`` reads, from one JSON report row."""

    def __init__(self, raw: dict):
        self.case_id = raw["case_id"]
        self.params = raw["params"]
        self.status = raw["status"]
        self.evaluations = raw["evaluations"]
        self.abs_err = self._number(raw["abs_err"])
        self.lhs = self._number(raw["lhs"])
        self.rhs = self._number(raw["rhs"])

    @staticmethod
    def _number(value):
        # 17-digit rendering writes integral floats without a point
        if isinstance(value, dict):
            return complex(value["re"], value["im"])
        return None if value is None else float(value)


def check_cli_output(exit_code: int, text: str) -> dict:
    """Gate one ``logtrig verify --format json`` report."""
    if exit_code != 0:
        raise CheckFailed(f"logtrig verify exited with {exit_code}")
    report = json.loads(text)
    cfg = report["config"]
    summary = check_rows([_JsonRow(r) for r in report["rows"]],
                         cfg["rtol"], cfg["atol"], all_must_pass=True)
    if summary["counts"] != {k: report["summary"][k] for k in summary["counts"]}:
        raise CheckFailed("report summary disagrees with its rows")
    summary["payload_sha256"] = sha256_text(rows_payload(text))
    return summary


# ---------------------------------------------------------------------------
# timed passes; each runs once in a fresh worker process


# Modules are looked up at call time (and the catalog module through
# importlib, since ``logtrig.catalog`` is the re-exported function), so a
# tracer installed in the worker sees every call.
def _package():
    return importlib.import_module("logtrig")


def _sweep(config, all_must_pass: bool) -> dict:
    report = _package().run_verification(config)
    summary = check_rows(report.rows, config.rtol, config.atol, all_must_pass)
    rows_json = importlib.import_module("logtrig.report").render_rows_json
    summary["payload_sha256"] = sha256_text(rows_json(report.rows))
    return summary


def pass_default_sweep(inputs: dict) -> dict:
    return _sweep(_package().RunConfig(jobs=1), all_must_pass=True)


def pass_offgrid_alpha(inputs: dict) -> dict:
    lt = _package()
    ids = tuple(c.id for c in lt.catalog() if c.param_kind == "alpha")
    config = lt.RunConfig(case_filter=ids, alpha_grid=tuple(inputs["alphas"]),
                          jobs=1)
    return _sweep(config, all_must_pass=False)


def load_reference() -> dict:
    """LHS values of the default sweep, keyed like ``_row_key``."""
    data = json.loads(REFERENCE_FILE.read_text())
    ref = {}
    for case_id, params, re, im in data["rows"]:
        ref[_row_key(case_id, params)] = re if im is None else complex(re, im)
    return {"rtol": data["rtol"], "atol": data["atol"], "lhs": ref}


def pass_closed_forms(inputs: dict, reference: dict) -> dict:
    """``evaluate_rhs`` over the dense alpha set and the default grids.

    Each value must be finite, and where the point lies on the default
    grids it must match the quadrature side recorded in the reference file
    to the verification tolerance.
    """
    lt = _package()
    catalog_mod = importlib.import_module("logtrig.catalog")
    alphas = sorted(set(inputs["alphas"]) | set(catalog_mod.ALPHA_GRID))
    lines = []
    counts = {"pass": 0, "fail": 0, "error": 0, "skipped": 0}
    matched = 0
    rtol, atol, ref = reference["rtol"], reference["atol"], reference["lhs"]
    for case in lt.catalog():
        for params in catalog_mod.default_params_grid(case, alpha_grid=alphas):
            merged = dict(case.fixed_params)
            merged.update(params)
            if not case.domain(merged):
                counts["skipped"] += 1
                continue
            rhs = lt.evaluate_rhs(case, params)
            key = _row_key(case.id, params)
            if not _finite(rhs):
                raise CheckFailed(f"{key}: non-finite closed form {rhs!r}")
            lhs = ref.get(key)
            if lhs is not None:
                matched += 1
                if abs(lhs - rhs) > max(atol, rtol * abs(rhs)):
                    raise CheckFailed(f"{key}: closed form {rhs!r} vs "
                                      f"reference quadrature {lhs!r}")
            counts["pass"] += 1
            lines.append("%s %s" % (key, _number_text(rhs)))
    if matched != len(ref):
        raise CheckFailed(f"only {matched} of {len(ref)} reference points evaluated")
    return {"counts": counts, "evaluated": counts["pass"], "failing": [],
            "row_evals": 0, "payload_sha256": sha256_text("\n".join(lines))}


def _number_text(value) -> str:
    if isinstance(value, complex):
        return "%s%+sj" % (format(value.real, ".17g"), format(value.imag, ".17g"))
    return format(value, ".17g")


def pass_cli_in_process(inputs: dict) -> dict:
    """``logtrig verify --format json --jobs 1`` through ``cli.main``.

    Only the traced run uses this: it lets the tracer see the cli and report
    layers, which a subprocess would hide.
    """
    cli = importlib.import_module("logtrig.cli")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", "--format", "json", "--jobs", "1"])
    return check_cli_output(code, out.getvalue())


def run_pass(inputs: dict, reference: dict | None):
    workload = inputs["workload"]
    if workload == "default-sweep":
        return pass_default_sweep(inputs)
    if workload == "offgrid-alpha":
        return pass_offgrid_alpha(inputs)
    if workload == "closed-forms":
        return pass_closed_forms(inputs, reference)
    if workload == "cli-verify":
        return pass_cli_in_process(inputs)
    raise ValueError(f"unknown workload {workload!r}")


def cli_command(jobs: int) -> list[str]:
    return [sys.executable, "-m", "logtrig.cli", "verify", "--format", "json",
            "--jobs", str(jobs)]
