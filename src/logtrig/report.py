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

import io
import math
import os
from typing import NamedTuple

from . import __version__
from .catalog import (ALPHA_GRID, A_GRID, GAMMA_GRID, THETA_GRID,
                      VerificationRow, case_by_id, catalog, check_tolerances,
                      default_params_grid, lhs_key, verify_case)
from .errors import DomainError

__all__ = ["RunConfig", "VerificationReport", "run_verification",
           "render_report"]


class _RunConfigFields(NamedTuple):
    case_filter: tuple[str, ...] = ()
    alpha_grid: tuple[float, ...] = tuple(ALPHA_GRID)
    a_grid: tuple[float, ...] = tuple(A_GRID)
    theta_grid: tuple[float, ...] = tuple(THETA_GRID)
    gamma_grid: tuple[float, ...] = tuple(GAMMA_GRID)
    rtol: float = 1e-8
    atol: float = 1e-10
    jobs: int = 1


class RunConfig(_RunConfigFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        check_tolerances(self.rtol, self.atol)
        grids = (self.alpha_grid, self.a_grid, self.theta_grid, self.gamma_grid)
        if not all(math.isfinite(v) for grid in grids for v in grid):
            raise DomainError("grid values must be finite")
        if self.jobs < 1:
            raise DomainError("jobs must be at least 1")
        for cid in self.case_filter:
            case_by_id(cid)  # raises DomainError on unknown ids
        return self

    @classmethod
    def _make(cls, iterable):  # _replace copies through here: check copies too
        return cls(*iterable)


class VerificationReport(NamedTuple):
    rows: tuple[VerificationRow, ...]
    tool_version: str
    config: RunConfig
    summary: dict[str, int]

    @property
    def exit_status(self) -> int:
        return (3 if self.summary.get("error") else
                1 if self.summary.get("fail") else 0)


def _summarize(rows: list[VerificationRow]) -> dict[str, int]:
    out = {"pass": 0, "fail": 0, "error": 0, "skipped": 0}
    for row in rows:
        out[row.status] += 1
    out["total"] = len(rows)
    return out


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


def _run_forked(run, tasks: list, jobs: int) -> list[list[VerificationRow]]:
    """``run`` over ``tasks`` in this process plus ``jobs - 1`` forked
    children; child k runs ``tasks[k::jobs]`` and pickles its rows, or the
    exception it raised with its traceback, into a pipe.  With one job it
    forks nothing: that is the serial run.  Every child is reaped before
    this returns or raises, and a child's exception is raised here with the
    child's traceback as its cause."""
    if jobs > 1:
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
                        data = pickle.dumps(([run(t) for t in tasks[k::jobs]],
                                             None))
                    except BaseException as exc:
                        data = _pickled_failure(exc)
                    with open(write_fd, "wb") as pipe:
                        pipe.write(data)
                    status = 0
                finally:
                    os._exit(status)
            os.close(write_fd)
            children.append((pid, read_fd))
        results[0::jobs] = [run(t) for t in tasks[0::jobs]]
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
    tasks = list(groups.values())

    def run(task: list[int]) -> list[VerificationRow]:
        shared: dict = {}
        return [verify_case(*points[i], rtol=config.rtol, atol=config.atol,
                            shared=shared) for i in task]

    # one process per task at most, and one even with no task
    jobs = max(1, min(config.jobs, len(tasks))) if hasattr(os, "fork") else 1
    for task, task_rows in zip(tasks, _run_forked(run, tasks, jobs)):
        for i, row in zip(task, task_rows):
            rows[i] = row
    return VerificationReport(tuple(rows), __version__, config,
                              _summarize(rows))


# ---------------------------------------------------------------------------
# rendering


def _f17(x: float) -> str:
    return format(x, ".17g")


# a JSON string holds no raw control character, quote or backslash
_JSON_ESCAPES = {**{c: "\\u%04x" % c for c in range(0x20)},
                 ord("\\"): "\\\\", ord('"'): '\\"'}


def _json(v) -> str:
    """``v`` as JSON text: floats to 17 digits, complex numbers as
    ``{"re", "im"}``.  Dict keys are the program's own field and parameter
    names and go unescaped.  Types are tested in the order of their
    frequency in a report; bool before int, which it subclasses."""
    if isinstance(v, float):
        return _f17(v)
    if isinstance(v, str):
        return '"%s"' % v.translate(_JSON_ESCAPES)
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, dict):
        return "{%s}" % ", ".join(['"%s": %s' % (k, _json(x))
                                   for k, x in v.items()])
    if v is None:
        return "null"
    if isinstance(v, complex):
        return '{"re": %s, "im": %s}' % (_f17(v.real), _f17(v.imag))
    return "[%s]" % ", ".join([_json(x) for x in v])


def _json_row(row: VerificationRow) -> dict:
    fields = {"case_id": row.case_id, "params": row.params, "lhs": row.lhs,
              "rhs": row.rhs, "abs_err": row.abs_err, "rel_err": row.rel_err,
              "pass": row.status == "pass", "status": row.status,
              "evaluations": row.evaluations}
    if row.detail:
        fields["detail"] = row.detail
    return fields


def render_rows_json(rows) -> str:
    """Just the rows array; the determinism contract applies to this payload."""
    return "[\n" + ",\n".join(["  " + _json(_json_row(r)) for r in rows]) + "\n]"


def render_json(report: VerificationReport) -> str:
    # the config's fields in declaration order, case_filter written "cases"
    config = {"cases" if k == "case_filter" else k: v
              for k, v in report.config._asdict().items()}
    return ('{\n"version": %s,\n"config": %s,\n"summary": %s,\n"rows": %s\n}\n'
            % (_json(report.tool_version), _json(config),
               _json(report.summary), render_rows_json(report.rows)))


def _text(v, digits: str) -> str:
    """A CSV or table cell: empty for None, a complex value as a+bj, which
    ``complex()`` reads back."""
    if v is None:
        return ""
    if isinstance(v, complex):
        return format(v.real, digits) + format(v.imag, "+" + digits) + "j"
    return format(v, digits)


CSV_COLUMNS = ("case_id", "param_name", "param_value", "lhs", "rhs",
               "abs_err", "rel_err", "pass", "evaluations")


def render_csv(report: VerificationReport) -> str:
    import csv
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in report.rows:
        writer.writerow([row.case_id, ";".join(row.params),
                         ";".join(_f17(v) for v in row.params.values()),
                         _text(row.lhs, ".17g"), _text(row.rhs, ".17g"),
                         _text(row.abs_err, ".17g"), _text(row.rel_err, ".17g"),
                         row.status, row.evaluations])
    return buf.getvalue()


def _short(v, digits: str = ".10g") -> str:
    """A table cell: "-" for None, a complex value real to rounding as its
    real part."""
    if isinstance(v, complex) and abs(v.imag) < 1e-13 * max(1.0, abs(v.real)):
        v = v.real
    return _text(v, digits) or "-"


def render_table(report: VerificationReport) -> str:
    header = ("case", "params", "lhs", "rhs", "abs_err", "status", "evals")
    table = [header]
    for row in report.rows:
        params = ", ".join("%s=%s" % (k, format(v, ".6g"))
                           for k, v in row.params.items())
        table.append((row.case_id, params, _short(row.lhs), _short(row.rhs),
                      _short(row.abs_err, ".3g"), row.status,
                      str(row.evaluations)))
    widths = [max(len(r[i]) for r in table) for i in range(len(header))]
    lines = ["  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip()
             for r in table]
    lines += ["", "pass %(pass)d  fail %(fail)d  error %(error)d  "
              "skipped %(skipped)d  (total %(total)d)" % report.summary]
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

