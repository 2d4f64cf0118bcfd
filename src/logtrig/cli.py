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
    return tuple(_parse_value(part) for part in text.split(",") if part.strip())


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
    verify.add_argument("--case", default="",
                        help="comma separated case ids (default: all)")
    verify.add_argument("--alpha", default=None,
                        help="comma separated alpha values; sqrt2/sqrt3 allowed")
    verify.add_argument("--a", dest="a_values", default=None,
                        help="comma separated a values")
    verify.add_argument("--theta", default=None,
                        help="comma separated theta values")
    verify.add_argument("--gamma", default=None,
                        help="comma separated gamma values")
    verify.add_argument("--rtol", type=float, default=1e-8)
    verify.add_argument("--atol", type=float, default=1e-10)
    verify.add_argument("--format", choices=("table", "json", "csv"),
                        default="table")
    verify.add_argument("--out", default=None, help="write the report here")
    verify.add_argument("--jobs", type=int, default=_usable_cpus(),
                        help="worker processes (default: the CPUs this "
                             "process may run on)")

    ev = sub.add_parser("eval", help="evaluate one case at one point")
    ev.add_argument("case_id")
    ev.add_argument("--alpha", default=None)
    ev.add_argument("--a", dest="a_value", default=None)
    ev.add_argument("--theta", default=None)
    ev.add_argument("--gamma", default=None)
    ev.add_argument("--rtol", type=float, default=1e-8)
    ev.add_argument("--atol", type=float, default=1e-10)

    pp = sub.add_parser("params", help="elliptic parameter bundle for alpha")
    pp.add_argument("--alpha", required=True)

    cont = sub.add_parser("contour", help="path points and contour integral")
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
    grids = {}
    if args.alpha is not None:
        grids["alpha_grid"] = _parse_list(args.alpha)
    if args.a_values is not None:
        grids["a_grid"] = _parse_list(args.a_values)
    if args.theta is not None:
        grids["theta_grid"] = _parse_list(args.theta)
    if args.gamma is not None:
        grids["gamma_grid"] = _parse_list(args.gamma)
    case_filter = tuple(c.strip() for c in args.case.split(",") if c.strip())
    config = RunConfig(case_filter=case_filter, rtol=args.rtol,
                       atol=args.atol, jobs=args.jobs, **grids)
    report = run_verification(config)
    _write_output(render_report(report, args.format), args.out)
    return report.exit_status


def _eval_params(args, case) -> dict[str, float]:
    given = {"alpha": args.alpha, "a": args.a_value, "theta": args.theta,
             "gamma": args.gamma}
    provided = {k: _parse_value(v) for k, v in given.items() if v is not None}
    if case.param_kind == "fixed":
        return dict(case.fixed_params)
    needed = PARAM_NAMES[case.param_kind]
    missing = [k for k in needed if k not in provided]
    if missing:
        raise DomainError(f"case {case.id} needs --{'/--'.join(missing)}")
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
    for name, value in (("alpha", ep.alpha), ("k", ep.k),
                        ("k_prime", ep.k_prime), ("K", ep.big_k),
                        ("K_prime", ep.big_k_prime), ("E", ep.big_e),
                        ("E_prime", ep.big_e_prime), ("q", ep.q)):
        print(f"{name} = {value:.17g}")
    return 0


def _cmd_contour(args) -> int:
    alpha = _parse_value(args.alpha)
    value = contour_trace(alpha)
    lines = ["x,re_z,im_z,integral_re,integral_im"]
    for x, re_z, im_z in contour_path_points(args.n_points):
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
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "eval":
            return _cmd_eval(args)
        if args.command == "params":
            return _cmd_params(args)
        return _cmd_contour(args)
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
