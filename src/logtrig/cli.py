"""Command line front end.

Subcommands: ``verify`` (sweep cases over parameter grids), ``eval`` (one
case at one point), ``params`` (elliptic quantities for an alpha), and
``contour`` (path data plus the contour integral as CSV).

Exit statuses: 0 all pass, 1 at least one failed check, 2 usage or domain
error, 3 numerical non-convergence, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .catalog import (PARAM_NAMES, case_by_id, case_params,
                      contour_path_points, contour_trace, verify_case)
from .errors import AccuracyError, DomainError, SolverError
from .report import RunConfig, render_report, run_verification
from .solver import modulus_from_alpha

__all__ = ["main"]

# the parameter flags of verify and eval, named as the parameters they set
_PARAM_FLAGS = ("alpha", "a", "theta", "gamma")

_VALUE_LITERALS = {"sqrt2": math.sqrt(2.0), "sqrt3": math.sqrt(3.0)}


def _parse_value(text: str) -> float:
    key = text.strip().lower()
    if key in _VALUE_LITERALS:
        return _VALUE_LITERALS[key]
    try:
        value = float(text)
    except ValueError:
        raise DomainError(f"cannot parse numeric value {text!r}") from None
    if not math.isfinite(value):
        raise DomainError(f"numeric value must be finite, got {text!r}")
    return value


def _parse_list(text: str) -> tuple[float, ...]:
    values = tuple(_parse_value(part) for part in text.split(",") if part.strip())
    if not values:
        raise DomainError(f"no value in {text!r}")
    return values


def _usable_cpus() -> int:
    """CPUs in this process's affinity mask where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="logtrig",
        description="Verify log-trigonometric integrals against their "
                    "elliptic-function closed forms.")
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="sweep cases over parameter grids")
    verify.set_defaults(run=_cmd_verify)
    verify.add_argument("--case", default="",
                        help="comma separated case ids (default: all)")
    ev = sub.add_parser("eval", help="evaluate one case at one point")
    ev.set_defaults(run=_cmd_eval)
    ev.add_argument("case_id")
    for command, values in ((verify, "comma separated %s values"),
                            (ev, "the %s value")):
        for name in _PARAM_FLAGS:
            command.add_argument("--" + name,
                                 help=values % name + "; sqrt2/sqrt3 allowed")
        command.add_argument("--rtol", type=float, default=1e-8)
        command.add_argument("--atol", type=float, default=1e-10)
    verify.add_argument("--format", choices=("table", "json", "csv"),
                        default="table")
    verify.add_argument("--out", default=None, help="write the report here")
    verify.add_argument("--jobs", type=int, default=_usable_cpus(),
                        metavar="N",
                        help="processes that share the sweep: this one "
                             "plus N-1 forked children, each taking every "
                             "N-th integral; serial where the platform "
                             "cannot fork (default: the CPUs this process "
                             "may run on)")

    pp = sub.add_parser("params", help="elliptic parameter bundle for alpha")
    pp.set_defaults(run=_cmd_params)
    pp.add_argument("--alpha", required=True)

    cont = sub.add_parser("contour", help="path points and contour integral")
    cont.set_defaults(run=_cmd_contour)
    cont.add_argument("--alpha", required=True)
    cont.add_argument("--n-points", type=int, default=129)
    cont.add_argument("--out", default=None)
    return parser


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _cmd_verify(args) -> int:
    grids = {name + "_grid": _parse_list(getattr(args, name))
             for name in _PARAM_FLAGS if getattr(args, name) is not None}
    case_filter = tuple(c.strip() for c in args.case.split(",") if c.strip())
    config = RunConfig(case_filter=case_filter, rtol=args.rtol,
                       atol=args.atol, jobs=args.jobs, **grids)
    report = run_verification(config)
    _write_output(render_report(report, args.format), args.out)
    return report.exit_status


def _eval_params(args, case) -> dict[str, float]:
    provided = {k: _parse_value(getattr(args, k)) for k in _PARAM_FLAGS
                if getattr(args, k) is not None}
    needed = PARAM_NAMES.get(case.param_kind, ())
    extra = [k for k in provided if k not in needed]
    if extra:
        raise DomainError(f"case {case.id} does not take --{'/--'.join(extra)}")
    missing = [k for k in needed if k not in provided]
    if missing:
        raise DomainError(f"case {case.id} needs --{'/--'.join(missing)}")
    if case.param_kind == "fixed":
        return dict(case.fixed_params)
    return {k: provided[k] for k in needed}


def _cmd_eval(args) -> int:
    case = case_by_id(args.case_id)
    params = _eval_params(args, case)
    try:
        merged = case_params(case, params)
    except DomainError as exc:
        print(f"{exc} (skipped)")
        return 2
    row = verify_case(case, params, rtol=args.rtol, atol=args.atol)
    shown = ", ".join(f"{k}={v:.12g}" for k, v in merged.items())
    print(f"case {case.id} [{shown}]" if shown else f"case {case.id}")
    if row.status == "error":
        print(f"  evaluation failed: {row.detail}")
        return 3
    print(f"  lhs     = {row.lhs}")
    print(f"  rhs     = {row.rhs}")
    print(f"  abs_err = {row.abs_err:.3e}")
    print(f"  rel_err = {row.rel_err:.3e}")
    print(f"  status  = {row.status}   (evaluations: {row.evaluations})")
    return 0 if row.status == "pass" else 1


def _cmd_params(args) -> int:
    alpha = _parse_value(args.alpha)
    ep = modulus_from_alpha(alpha)
    # the EllipticParams fields in order, K and E written as in the paper
    for name, value in zip(("alpha", "k", "k_prime", "log_k_prime", "K",
                            "K_prime", "E", "E_prime", "q"), ep):
        print(f"{name} = {value:.17g}")
    return 0


def _cmd_contour(args) -> int:
    alpha = _parse_value(args.alpha)
    points = contour_path_points(args.n_points)  # refuse a bad count first
    value = contour_trace(alpha)
    lines = ["x,re_z,im_z,integral_re,integral_im"]
    for x, re_z, im_z in points:
        lines.append("%.17g,%.17g,%.17g,%.17g,%.17g"
                     % (x, re_z, im_z, value.real, value.imag))
    _write_output("\n".join(lines) + "\n", args.out)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.run(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (AccuracyError, SolverError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
