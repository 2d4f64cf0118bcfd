"""Call-boundary tracer for the logtrig layers.

The tracer replaces public functions of the package with wrappers that
record a span (name, start, end, parent span) per call, plus a per-call
payload for the counts that the per-layer metrics need.  A function is
patched under every name a loaded ``logtrig`` module binds it to, so calls
are caught where they are looked up (``logtrig.report.verify_case``, the
catalog module's ``modulus_from_alpha`` and series imports, the solver's
``agm`` and so on) whichever module defines them.  Modules are reached
through ``importlib.import_module``: the package re-exports a ``catalog()``
function that shadows the ``logtrig.catalog`` module attribute.

``agm`` runs about a hundred times per modulus solve, so it is counted and
timed without a span.
"""

from __future__ import annotations

import importlib
import math
import sys
import time
from statistics import median

_perf = time.perf_counter

# The limit integrate_endpoint_oscillatory passes for its interior panel;
# tail chunks pass 4096.  This call-site argument is what tells the two apart.
INTERIOR_LIMIT = 8192


def _quad_info(args, kwargs, result):
    kind = "interior" if kwargs.get("limit") == INTERIOR_LIMIT else "tail"
    return kind, result.evaluations, result.subdivisions


def _lhs_info(args, kwargs, result):
    # An LHS integral repeats an earlier one when every input of the
    # quadrature is the same: integrand, interval, endpoint transform,
    # feature hints, merged parameters and tolerances.
    case, params = args[0], args[1]
    merged = dict(case.fixed_params)
    merged.update(params)
    key = (case.integrand, case.interval, case.map_kind, case.freq,
           case.osc_ends, case.complex_valued, case.interior_points,
           case.tail_points, tuple(sorted(merged.items())), args[2:],
           tuple(sorted(kwargs.items())))
    return key, case.complex_valued


def _solver_info(args, kwargs, result):
    return args[0]


def _series_info(args, kwargs, result):
    return getattr(result, "terms_used", 0)


# (span name, defining module, attribute, payload function)
SPAN_TARGETS = (
    ("cli.main", "logtrig.cli", "main", None),
    ("report.run_verification", "logtrig.report", "run_verification", None),
    ("report.render_report", "logtrig.report", "render_report", None),
    ("report.render_rows_json", "logtrig.report", "render_rows_json", None),
    ("catalog.verify_case", "logtrig.catalog", "verify_case", None),
    ("catalog.evaluate_lhs", "logtrig.catalog", "evaluate_lhs", _lhs_info),
    ("catalog.evaluate_rhs", "logtrig.catalog", "evaluate_rhs", None),
    ("quadrature.integrate_endpoint_oscillatory", "logtrig.quadrature",
     "integrate_endpoint_oscillatory", None),
    ("quadrature.integrate_adaptive", "logtrig.quadrature",
     "integrate_adaptive", _quad_info),
    ("solver.modulus_from_alpha", "logtrig.solver", "modulus_from_alpha",
     _solver_info),
) + tuple(
    ("series." + name, "logtrig.series", name, _series_info)
    for name in ("product_one_minus", "product_one_plus", "lambert_alternating",
                 "sinh2_sum_integer", "sinh2_sum_odd", "sqrt2_cosh_sum_odd",
                 "sqrt2_cosh_sum_bilateral", "cosh_third_sum", "cn_imag_third",
                 "lambert_plain", "gamma_fn"))

COUNTER_TARGETS = (("elliptic.agm", "logtrig.elliptic", "agm"),)


def _package_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "logtrig" or name.startswith("logtrig."))]


class Tracer:
    """Spans and counters for one traced pass; install, run, uninstall."""

    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent, payload]
        self.counters: dict[str, list[float]] = {}   # name -> [calls, seconds]
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _span_wrapper(self, name, fn, payload):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = _perf()
                stack.pop()
            if payload is not None:
                rec[4] = payload(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _counter_wrapper(self, name, fn):
        cell = self.counters.setdefault(name, [0, 0.0])

        def counted(*args, **kwargs):
            t0 = _perf()
            try:
                return fn(*args, **kwargs)
            finally:
                cell[0] += 1
                cell[1] += _perf() - t0

        counted.__wrapped__ = fn
        return counted

    def _patch(self, module_name, attr, make_wrapper, label):
        owner = importlib.import_module(module_name)
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(label)
            return
        wrapper = make_wrapper(original)
        for mod in _package_modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._saved.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def install(self) -> "Tracer":
        for name, module_name, attr, payload in SPAN_TARGETS:
            self._patch(module_name, attr,
                        lambda fn, n=name, p=payload: self._span_wrapper(n, fn, p),
                        name)
        for name, module_name, attr in COUNTER_TARGETS:
            self._patch(module_name, attr,
                        lambda fn, n=name: self._counter_wrapper(n, fn), name)
        return self

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._saved):
            setattr(mod, key, original)
        self._saved.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def dump(self) -> dict:
        """Spans relative to the first start, for writing out after the run."""
        t0 = self.spans[0][1] if self.spans else 0.0
        return {
            "fields": ["name", "start_s", "end_s", "parent"],
            "spans": [[s[0], round(s[1] - t0, 9), round(s[2] - t0, 9), s[3]]
                      for s in self.spans],
            "counters": {k: {"calls": v[0], "s": v[1]}
                         for k, v in self.counters.items()},
        }


def _outermost(spans, prefix: str) -> list[list]:
    """Spans whose name starts with ``prefix`` and have no such ancestor."""
    out = []
    for rec in spans:
        if not rec[0].startswith(prefix):
            continue
        parent = rec[3]
        while parent >= 0 and not spans[parent][0].startswith(prefix):
            parent = spans[parent][3]
        if parent < 0:
            out.append(rec)
    return out


def _quantile_ms(durations: list[float], q: float) -> float:
    if not durations:
        return 0.0
    ordered = sorted(durations)
    idx = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return 1e3 * ordered[idx]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures of one traced pass (see perfbench/METRICS.md).

    A figure whose layer did no work in the pass (quadrature on
    closed-forms, say) reads 0.
    """
    spans = tracer.spans
    quad = {"interior": [0, 0.0, 0], "tail": [0, 0.0, 0]}   # evals, s, calls
    subdivisions = 0
    lhs_index = {}       # span index of each evaluate_lhs -> quadrature evals
    for idx, rec in enumerate(spans):
        if rec[0] == "catalog.evaluate_lhs":
            lhs_index[idx] = 0
    for rec in spans:
        if rec[0] != "quadrature.integrate_adaptive" or rec[4] is None:
            continue
        kind, evals, subs = rec[4]
        cell = quad[kind]
        cell[0] += evals
        cell[1] += rec[2] - rec[1]
        cell[2] += 1
        subdivisions += subs
        parent = rec[3]
        while parent >= 0 and spans[parent][0] != "catalog.evaluate_lhs":
            parent = spans[parent][3]
        if parent >= 0:
            lhs_index[parent] += evals

    quad_evals = quad["interior"][0] + quad["tail"][0]
    seen_lhs = set()
    repeat_evals = complex_evals = 0
    for idx, evals in lhs_index.items():
        payload = spans[idx][4]
        if payload is None:
            continue
        key, is_complex = payload
        if key in seen_lhs:
            repeat_evals += evals
        seen_lhs.add(key)
        if is_complex:
            complex_evals += evals

    def total_s(name):
        return sum(r[2] - r[1] for r in spans if r[0] == name)

    rows = [r[2] - r[1] for r in spans if r[0] == "catalog.verify_case"]
    solves = [r for r in spans if r[0] == "solver.modulus_from_alpha"]
    seen_alpha = set()
    solver_repeats = 0
    for rec in solves:
        if rec[4] in seen_alpha:
            solver_repeats += 1
        seen_alpha.add(rec[4])
    series = _outermost(spans, "series.")
    renders = _outermost(spans, "report.render_")
    cli_self = 0.0
    for idx, rec in enumerate(spans):
        if rec[0] == "cli.main":
            children = sum(c[2] - c[1] for c in spans if c[3] == idx)
            cli_self += (rec[2] - rec[1]) - children
    agm_calls, agm_s = tracer.counters.get("elliptic.agm", [0, 0.0])

    def per(numer, denom, scale=1.0):
        return scale * numer / denom if denom else 0.0

    return {
        "quadrature.tail.evals": quad["tail"][0],
        "quadrature.tail.us_per_eval": per(quad["tail"][1], quad["tail"][0], 1e6),
        "quadrature.tail.chunks": quad["tail"][2],
        "quadrature.interior.evals": quad["interior"][0],
        "quadrature.interior.us_per_eval": per(quad["interior"][1],
                                               quad["interior"][0], 1e6),
        "quadrature.subdivisions": subdivisions,
        "catalog.evals_per_row": per(quad_evals, len(rows)),
        "catalog.complex.evals_share": per(complex_evals, quad_evals),
        "catalog.lhs_repeat_share": per(repeat_evals, quad_evals),
        "catalog.evaluate_lhs.s": total_s("catalog.evaluate_lhs"),
        "catalog.evaluate_rhs.s": total_s("catalog.evaluate_rhs"),
        "catalog.verify_case.p50_ms": _quantile_ms(rows, 0.50),
        "catalog.verify_case.p95_ms": _quantile_ms(rows, 0.95),
        "catalog.verify_case.max_ms": _quantile_ms(rows, 1.0),
        "solver.calls": len(solves),
        "solver.us_per_call": per(sum(r[2] - r[1] for r in solves), len(solves), 1e6),
        "solver.repeat_share": per(solver_repeats, len(solves)),
        "elliptic.agm.calls": agm_calls,
        "elliptic.agm.s": agm_s,
        "series.calls": len(series),
        "series.s": sum(r[2] - r[1] for r in series),
        "series.terms_used": sum(r[4] or 0 for r in series),
        "report.render_s": sum(r[2] - r[1] for r in renders),
        "cli.self_s": cli_self,
        "quadrature.evals": quad_evals,
    }


def summarize_runs(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Median of each figure over several traced passes (counts repeat
    exactly, so they stay whole numbers)."""
    out = {}
    for key in per_pass[0]:
        values = [p[key] for p in per_pass]
        out[key] = values[0] if len(set(values)) == 1 else median(values)
    return out
