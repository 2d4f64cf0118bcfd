"""Verification sweeps and their serialized reports.

Reports are deterministic: rows appear in canonical order (catalog order,
then ascending parameter tuples), floats are serialized with 17 significant
digits for exact round-trips, and no timestamps or host details enter the
payload.

A sweep integrates each distinct LHS once.  Several cases state one
integral in more than one closed form (T1-A and T1-PA, T2 and EX-2 at
alpha = 2, ...), so before any work starts the in-domain points are
grouped by ``catalog.lhs_key``, and each group runs as one task, in one
process or in several alike: repeats that would land in different
processes are caught too.  Within a group ``verify_case`` still makes
every row; the first row that needs the integral computes it and later
rows reuse its value, with 0 evaluations and the detail "lhs of <case
id>", or its failure.  The rows then go back into canonical order, so the
payload does not depend on ``jobs``.

``jobs`` counts the processes that share the sweep: this one plus N-1
forked children, each taking every N-th integral; serial where the
platform cannot fork.  N is capped at the number of tasks.
"""

from __future__ import annotations

import csv
import io
import math
import os
from dataclasses import dataclass, field

from . import __version__
from .catalog import (ALPHA_GRID, A_GRID, GAMMA_GRID, THETA_GRID,
                      VerificationRow, case_by_id, catalog, check_tolerances,
                      default_params_grid, lhs_key, verify_case)
from .errors import DomainError

__all__ = ["RunConfig", "VerificationReport", "run_verification",
           "render_report", "PARAM_ORDER"]

PARAM_ORDER = ("theta", "gamma", "alpha", "a")


@dataclass(frozen=True)
class RunConfig:
    case_filter: tuple[str, ...] = ()
    alpha_grid: tuple[float, ...] = tuple(ALPHA_GRID)
    a_grid: tuple[float, ...] = tuple(A_GRID)
    theta_grid: tuple[float, ...] = tuple(THETA_GRID)
    gamma_grid: tuple[float, ...] = tuple(GAMMA_GRID)
    rtol: float = 1e-8
    atol: float = 1e-10
    jobs: int = 1

    def __post_init__(self):
        check_tolerances(self.rtol, self.atol)
        grids = (self.alpha_grid, self.a_grid, self.theta_grid, self.gamma_grid)
        if not all(math.isfinite(v) for grid in grids for v in grid):
            raise DomainError("grid values must be finite")
        if self.jobs < 1:
            raise DomainError("jobs must be at least 1")
        for cid in self.case_filter:
            case_by_id(cid)  # raises DomainError on unknown ids


@dataclass(frozen=True)
class VerificationReport:
    rows: tuple[VerificationRow, ...]
    tool_version: str
    config: RunConfig
    summary: dict[str, int] = field(default_factory=dict)

    @property
    def exit_status(self) -> int:
        if self.summary.get("error", 0):
            return 3
        if self.summary.get("fail", 0):
            return 1
        return 0


def _summarize(rows: list[VerificationRow]) -> dict[str, int]:
    out = {"pass": 0, "fail": 0, "error": 0, "skipped": 0}
    for row in rows:
        out[row.status] += 1
    out["total"] = len(rows)
    return out


def _verify_group(task: tuple[list[tuple[str, dict[str, float]]], float, float]
                  ) -> list[VerificationRow]:
    points, rtol, atol = task
    shared: dict = {}
    return [verify_case(case_by_id(case_id), params, rtol=rtol, atol=atol,
                        shared=shared)
            for case_id, params in points]


class _ChildTraceback(Exception):
    """A forked child's formatted traceback, raised here as the cause of the
    child's exception, as ``concurrent.futures`` chains a worker's."""


def _pickled_failure(exc: BaseException) -> bytes:
    """``exc`` with its formatted traceback, pickled for the parent.  An
    exception that does not survive pickling, as one whose ``__init__``
    takes more than its message, goes as a ChildProcessError that names
    its type and message."""
    import pickle
    import traceback  # only a failing child needs it

    text = "".join(traceback.format_exception(exc))
    try:
        data = pickle.dumps((exc, text))
        pickle.loads(data)
    except Exception:
        data = pickle.dumps(
            (ChildProcessError(f"{type(exc).__name__}: {exc}"), text))
    return data


def _run_forked(tasks: list, jobs: int) -> list[list[VerificationRow]]:
    """``_verify_group`` over ``tasks`` in this process plus ``jobs - 1``
    forked children; child k runs ``tasks[k::jobs]`` and pickles its rows,
    or the exception it raised with its traceback, into a pipe.  Every
    child is reaped before this returns or raises, and a child's exception
    is raised here with the child's traceback as its cause."""
    import pickle  # only a forked run needs it

    results: list = [None] * len(tasks)
    children: list[tuple[int, int]] = []  # (pid, read end of its pipe)
    try:
        for k in range(1, jobs):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                # the child: never return into the caller's frames, never
                # flush the parent's stdio buffers or run its atexit hooks
                status = 1
                try:
                    os.close(read_fd)
                    try:
                        data = pickle.dumps(([_verify_group(t)
                                              for t in tasks[k::jobs]], None))
                    except BaseException as exc:
                        data = _pickled_failure(exc)
                    with open(write_fd, "wb") as pipe:
                        pipe.write(data)
                    status = 0
                finally:
                    os._exit(status)
            os.close(write_fd)
            children.append((pid, read_fd))
        results[0::jobs] = [_verify_group(t) for t in tasks[0::jobs]]
        for k, (pid, read_fd) in enumerate(children, 1):
            with open(read_fd, "rb", closefd=False) as pipe:
                data = pipe.read()
            if not data:
                raise ChildProcessError(f"sweep process {pid} sent no rows")
            share, text = pickle.loads(data)
            if text is not None:
                raise share from _ChildTraceback(text)
            results[k::jobs] = share
    finally:
        # a child still writing gets EPIPE once no process holds its read
        # end, so close them all before waiting for any
        for _, read_fd in children:
            os.close(read_fd)
        for pid, _ in children:
            os.waitpid(pid, 0)
    return results


def run_verification(config: RunConfig) -> VerificationReport:
    """Run every selected (case, grid point), one task per distinct LHS;
    out-of-domain points are skipped."""
    points = [(case, params)
              for case in catalog()
              if not config.case_filter or case.id in config.case_filter
              for params in default_params_grid(case, config.alpha_grid,
                                                config.a_grid, config.theta_grid,
                                                config.gamma_grid)]
    rows: list[VerificationRow | None] = [None] * len(points)
    groups: dict[tuple, list[int]] = {}
    for i, (case, params) in enumerate(points):
        try:
            groups.setdefault(lhs_key(case, params), []).append(i)
        except DomainError:
            rows[i] = VerificationRow(case.id, params, None, None, None, None,
                                      "skipped", 0)
    tasks = [([(points[i][0].id, points[i][1]) for i in members],
              config.rtol, config.atol) for members in groups.values()]
    jobs = min(config.jobs, len(tasks))
    if jobs > 1 and hasattr(os, "fork"):
        results = _run_forked(tasks, jobs)
    else:
        results = [_verify_group(t) for t in tasks]
    for members, group_rows in zip(groups.values(), results):
        for i, row in zip(members, group_rows):
            rows[i] = row
    return VerificationReport(tuple(rows), __version__, config,
                              _summarize(rows))


# ---------------------------------------------------------------------------
# rendering


def _f17(x: float) -> str:
    return format(float(x), ".17g")


def _param_items(params: dict[str, float]) -> list[tuple[str, float]]:
    return [(k, params[k]) for k in PARAM_ORDER if k in params]


# a JSON string holds no raw control character, quote or backslash
_JSON_ESCAPES = {**{c: "\\u%04x" % c for c in range(0x20)},
                 ord("\\"): "\\\\", ord('"'): '\\"'}


def _json_scalar(v) -> str:
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return _f17(v)
    if isinstance(v, complex):
        return '{"re": %s, "im": %s}' % (_f17(v.real), _f17(v.imag))
    return '"%s"' % str(v).translate(_JSON_ESCAPES)


def _json_row(row: VerificationRow) -> str:
    params = ", ".join('"%s": %s' % (k, _f17(v)) for k, v in _param_items(row.params))
    fields = [
        '"case_id": %s' % _json_scalar(row.case_id),
        '"params": {%s}' % params,
        '"lhs": %s' % _json_scalar(row.lhs),
        '"rhs": %s' % _json_scalar(row.rhs),
        '"abs_err": %s' % _json_scalar(row.abs_err),
        '"rel_err": %s' % _json_scalar(row.rel_err),
        '"pass": %s' % _json_scalar(row.status == "pass"),
        '"status": %s' % _json_scalar(row.status),
        '"evaluations": %d' % row.evaluations,
    ]
    if row.detail:
        fields.append('"detail": %s' % _json_scalar(row.detail))
    return "{" + ", ".join(fields) + "}"


def render_rows_json(rows) -> str:
    """Just the rows array; the determinism contract applies to this payload."""
    return "[\n" + ",\n".join("  " + _json_row(r) for r in rows) + "\n]"


def _json_grid(name: str, values) -> str:
    return '"%s": [%s]' % (name, ", ".join(_f17(v) for v in values))


def render_json(report: VerificationReport) -> str:
    cfg = report.config
    config_parts = [
        '"cases": [%s]' % ", ".join(_json_scalar(c) for c in cfg.case_filter),
        _json_grid("alpha_grid", cfg.alpha_grid),
        _json_grid("a_grid", cfg.a_grid),
        _json_grid("theta_grid", cfg.theta_grid),
        _json_grid("gamma_grid", cfg.gamma_grid),
        '"rtol": %s' % _f17(cfg.rtol),
        '"atol": %s' % _f17(cfg.atol),
        '"jobs": %d' % cfg.jobs,
    ]
    summary = ", ".join('"%s": %d' % (k, report.summary[k])
                        for k in ("pass", "fail", "error", "skipped", "total"))
    return ("{\n"
            '"version": %s,\n' % _json_scalar(report.tool_version)
            + '"config": {%s},\n' % ", ".join(config_parts)
            + '"summary": {%s},\n' % summary
            + '"rows": %s\n' % render_rows_json(report.rows)
            + "}\n")


def _csv_value(v) -> str:
    if v is None:
        return ""
    if isinstance(v, complex):
        return "%s%+sj" % (_f17(v.real), _f17(v.imag))
    return _f17(v)


CSV_COLUMNS = ("case_id", "param_name", "param_value", "lhs", "rhs",
               "abs_err", "rel_err", "pass", "evaluations")


def render_csv(report: VerificationReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in report.rows:
        items = _param_items(row.params)
        writer.writerow([
            row.case_id,
            ";".join(k for k, _ in items),
            ";".join(_f17(v) for _, v in items),
            _csv_value(row.lhs),
            _csv_value(row.rhs),
            _csv_value(row.abs_err),
            _csv_value(row.rel_err),
            row.status,
            row.evaluations,
        ])
    return buf.getvalue()


def _short(v, digits: str = ".10g") -> str:
    if v is None:
        return "-"
    if isinstance(v, complex):
        if abs(v.imag) < 1e-13 * max(1.0, abs(v.real)):
            return format(v.real, digits)
        return "%s%+sj" % (format(v.real, digits), format(v.imag, digits))
    return format(v, digits)


def render_table(report: VerificationReport) -> str:
    lines = []
    header = ("case", "params", "lhs", "rhs", "abs_err", "status", "evals")
    table = [header]
    for row in report.rows:
        params = ", ".join("%s=%s" % (k, format(v, ".6g"))
                           for k, v in _param_items(row.params))
        table.append((row.case_id, params, _short(row.lhs), _short(row.rhs),
                      _short(row.abs_err, ".3g"), row.status,
                      str(row.evaluations)))
    widths = [max(len(r[i]) for r in table) for i in range(len(header))]
    for r in table:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    s = report.summary
    lines.append("")
    lines.append("pass %d  fail %d  error %d  skipped %d  (total %d)"
                 % (s["pass"], s["fail"], s["error"], s["skipped"], s["total"]))
    return "\n".join(lines) + "\n"


def render_report(report: VerificationReport, fmt: str) -> str:
    """The report as "table", "json" or "csv" text."""
    if fmt == "json":
        return render_json(report)
    if fmt == "csv":
        return render_csv(report)
    if fmt == "table":
        return render_table(report)
    raise DomainError(f"unknown format {fmt!r}")

