"""Acceptance criteria, one check per numbered item.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines.
"""

import math
import os
import random
import time

import elliptic_oracle as oracle
from logtrig import (case_by_id, contour_trace, cosh_third_sum, evaluate_lhs,
                     evaluate_rhs, lambert_alternating, modulus_from_alpha,
                     product_one_minus, product_one_plus, sinh2_sum_integer,
                     sinh2_sum_odd, sqrt2_cosh_sum_bilateral,
                     sqrt2_cosh_sum_odd)
from logtrig.report import RunConfig, render_rows_json, run_verification

PI = math.pi
SQRT3 = math.sqrt(3.0)
JOBS = os.cpu_count() or 1


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_closed_form_examples():
    t0 = time.monotonic()
    worst = 0.0
    for cid in ("EX-1", "EX-2", "EX-3"):
        case = case_by_id(cid)
        lhs, _ = evaluate_lhs(case, {}, 1e-10)
        rhs = evaluate_rhs(case, {})
        worst = max(worst, abs(lhs - rhs) / abs(rhs))
    elapsed = time.monotonic() - t0
    _report("criterion 1 (closed-form examples)",
            worst <= 1e-8 and elapsed <= 10.0,
            f"worst rel err {worst:.2e}, {elapsed:.1f} s")


def test_criterion_2_full_sweep():
    t0 = time.monotonic()
    report = run_verification(RunConfig(rtol=1e-8, atol=1e-10, jobs=JOBS))
    elapsed = time.monotonic() - t0
    s = report.summary
    ok = (s["fail"] == 0 and s["error"] == 0 and s["pass"] >= 200
          and elapsed <= 120.0)
    _report("criterion 2 (full catalog sweep)", ok,
            f"{s['pass']} pass / {s['skipped']} skipped of {s['total']} rows "
            f"in {elapsed:.1f} s")


def test_criterion_3_sine0():
    lhs, _ = evaluate_lhs(case_by_id("SINE0"), {}, 1e-10)
    err = abs(lhs - 13.0 * PI / 24.0)
    _report("criterion 3 (13 pi/24 value)", err <= 1e-10, f"abs err {err:.2e}")


def test_criterion_4_proof_layer_agreement():
    worst = 0.0
    for pa, pb in (("T1-PA", "T1-A"), ("T1-PB", "T1-B"),
                   ("T4-PA", "T4-A"), ("T4-PB", "T4-B")):
        for alpha in (1.0, 1.5, 2.0):
            p = {"alpha": alpha}
            worst = max(worst, abs(evaluate_rhs(case_by_id(pa), p)
                                   - evaluate_rhs(case_by_id(pb), p)))
    for alpha in (1.0, 1.5, 2.0):
        lhs, _ = evaluate_lhs(case_by_id("T2"), {"alpha": alpha}, 1e-10)
        rhs = evaluate_rhs(case_by_id("T2"), {"alpha": alpha})
        lam = PI / 4 - 0.5 * PI * alpha * lambert_alternating(alpha).direct
        worst = max(worst, abs(lhs - rhs), abs(lhs - lam), abs(rhs - lam))
    _report("criterion 4 (proof-layer forms)", worst <= 1e-9,
            f"worst abs gap {worst:.2e}")


def test_criterion_5_series_suite():
    series = (product_one_minus, product_one_plus, sinh2_sum_integer,
              sinh2_sum_odd, lambert_alternating, sqrt2_cosh_sum_odd,
              sqrt2_cosh_sum_bilateral)
    worst = 0.0
    for alpha in (0.5, 1.0, SQRT3, 2.0):
        ep = modulus_from_alpha(alpha)
        for fn in series:
            closed = oracle.SERIES_CLOSED_FORMS[fn.__name__](ep)
            worst = max(worst, abs(fn(alpha).direct - closed))
    # the package reaches cn(i K'/3, k) only through this sum
    for alpha in (1.0, SQRT3, 2.0):
        closed = oracle.SERIES_CLOSED_FORMS["cosh_third_sum"](
            modulus_from_alpha(alpha))
        worst = max(worst, abs(cosh_third_sum(alpha).direct - closed))
    _report("criterion 5 (series suite)", worst <= 1e-11,
            f"worst |direct - closed| {worst:.2e}")


def test_criterion_6_elliptic_core_properties():
    rng = random.Random(1234)
    worst_leg = 0.0
    for _ in range(100):
        # on the AGM values: the nome route takes E' from this relation
        k = rng.uniform(0.01, 0.99)
        kp = oracle.complementary_modulus(k)
        big_k, big_k_prime = oracle.complete_k(k), oracle.complete_k(kp, k)
        worst_leg = max(worst_leg, abs(
            oracle.complete_e(k) * big_k_prime
            + oracle.complete_e(kp, k) * big_k - big_k * big_k_prime - PI / 2))
    worst_agm = 0.0
    for k in (0.05, 0.3, 0.5, 0.7071067811865476, 0.9, 0.99, 0.999):
        ref = oracle.complete_k(k)
        worst_agm = max(worst_agm,
                        abs(oracle.oracle_k_quadrature(k) - ref) / ref)
    worst_rt = 0.0
    n = 20
    for i in range(n + 1):
        alpha = 0.25 * (6.0 / 0.25) ** (i / n)
        back = oracle.alpha_from_modulus(modulus_from_alpha(alpha).k)
        worst_rt = max(worst_rt, abs(back - alpha) / alpha)
    ok = worst_leg <= 1e-12 and worst_agm <= 1e-11 and worst_rt <= 1e-11
    _report("criterion 6 (elliptic core)", ok,
            f"Legendre {worst_leg:.2e}, AGM vs oracle {worst_agm:.2e}, "
            f"round-trip {worst_rt:.2e}")


def test_criterion_7_heaviside_jump():
    case = case_by_id("APPA")
    delta = 1e-3
    ok = True
    detail = []
    for theta in (0.0, PI / 4.0, -0.4):
        s = math.log(2.0 * math.cos(theta))
        rows = []
        for a in (s - delta, s + delta):
            rhs = evaluate_rhs(case, {"theta": theta, "a": a})
            tolerance = max(1e-10, 1e-8 * abs(rhs))
            lhs, _ = evaluate_lhs(case, {"theta": theta, "a": a}, tolerance)
            rows.append((lhs, rhs))
            ok = ok and abs(lhs - rhs) <= tolerance
        jump_lhs = rows[0][0] - rows[1][0]
        jump_rhs = rows[0][1] - rows[1][1]
        gap = abs(jump_lhs - jump_rhs)
        ok = ok and gap <= 1e-6
        detail.append(f"theta={theta:+.3f} jump gap {gap:.1e}")
    _report("criterion 7 (Heaviside jump)", ok, "; ".join(detail))


def test_criterion_8_contour_route():
    ok = True
    detail = []
    for alpha in (1.0, 2.0):
        value = contour_trace(alpha)
        rhs = evaluate_rhs(case_by_id("T2"), {"alpha": alpha})
        ok = ok and abs(value.real - rhs) <= 1e-8 and abs(value.imag) <= 1e-9
        detail.append(f"alpha={alpha:g}: |re gap| {abs(value.real - rhs):.1e}"
                      f", |im| {abs(value.imag):.1e}")
    _report("criterion 8 (contour route)", ok, "; ".join(detail))


def test_criterion_9_determinism():
    config = RunConfig(case_filter=("T2", "SINE0", "T1-A", "APPA", "THETA2",
                                    "DISC-P4", "EX-2", "DISC-L1"),
                       jobs=1)
    first = render_rows_json(run_verification(config).rows)
    second = render_rows_json(run_verification(config).rows)
    pooled = render_rows_json(run_verification(
        RunConfig(case_filter=config.case_filter, jobs=2)).rows)
    ok = first == second == pooled
    _report("criterion 9 (determinism)", ok,
            f"{len(first)} bytes, byte-identical across reruns and pool sizes")
