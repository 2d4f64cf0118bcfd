"""Identity catalog: case table, evaluation, cross-layer consistency."""

import cmath
import dataclasses
import hashlib
import math
import random

import pytest

from logtrig import (DomainError, case_by_id, catalog, contour_path_points,
                     contour_trace, evaluate_lhs, evaluate_rhs,
                     lambert_alternating, modulus_from_alpha,
                     residue_count_appa, verify_case)
from logtrig.catalog import PARAM_NAMES
from logtrig.report import RunConfig, render_rows_json, run_verification

PI = math.pi
LN2 = math.log(2.0)
SQRT3 = math.sqrt(3.0)

# 30-digit spot references
T1A_LHS_025 = 4.173044420530432
T1A_RHS_1 = -1.08290983972510166
T2_RHS_1 = 0.714578575770829485
T2_RHS_2 = 0.779520463183038663
EX1_VALUE = 1.10243672558874939
EX2_VALUE = 0.779520463183038663
EX3_VALUE = -1.65365580936213581
SINE0_VALUE = 13.0 * PI / 24.0
T7_LHS_1 = 1.8575557759965805
APPA_RHS = complex(1.3056237506526583, -0.197399294107188109)


@pytest.fixture(scope="module")
def sweep():
    return run_verification(RunConfig(jobs=2))


def test_catalog_shape():
    cases = catalog()
    ids = [c.id for c in cases]
    assert len(ids) == len(set(ids))
    assert len(cases) == 35
    assert ids.count("T2") == 1
    assert case_by_id("T2").param_kind == "alpha"
    with pytest.raises(DomainError):
        case_by_id("NOPE")


_TRIG = {"log-cos": (math.cos, 1.0), "log-sin": (math.sin, 1.0),
         "log-sin-half": (math.sin, 0.5)}


@pytest.mark.parametrize("case", catalog(), ids=lambda c: c.id)
def test_osc_ends_are_the_divergent_ends(case):
    # the endpoint transform runs at exactly the ends where log(2 trig(c x))
    # diverges, i.e. where trig(c x) vanishes
    trig, c = _TRIG[case.map_kind]
    for end, x in zip(("lower", "upper"), case.interval):
        if end in case.osc_ends:
            assert abs(trig(c * x)) < 1e-12
        else:
            assert abs(trig(c * x)) >= 0.5


@pytest.mark.parametrize("ids", (("T1-A", "T1-PA"), ("T1-B", "T1-PB", "EX-1"),
                                 ("T4-A", "T4-PA"), ("T4-B", "T4-PB"),
                                 ("T2", "EX-2"), ("S3-T6", "EX-3"),
                                 ("DISC-L2", "DISC-P3"), ("SINE", "SINE0")))
def test_cases_of_one_kernel_share_one_integrand(ids):
    first = case_by_id(ids[0]).integrand
    assert all(case_by_id(i).integrand is first for i in ids[1:])


def test_fixed_cases_carry_parameters():
    assert case_by_id("EX-1").fixed_params == {"alpha": SQRT3}
    assert case_by_id("EX-2").fixed_params == {"alpha": 2.0}
    assert case_by_id("EX-3").fixed_params == {"alpha": SQRT3}


def test_domain_predicates():
    assert not case_by_id("T1-A").domain({"alpha": 0.05})
    assert case_by_id("T1-A").domain({"alpha": 0.12})
    assert not case_by_id("T2").domain({"alpha": 0.1})
    assert not case_by_id("S3-T5B").domain({"alpha": 0.25})
    # the arctan case needs every jump level of the kernel below 2
    assert not case_by_id("S3-T7").domain({"alpha": 0.5})
    assert case_by_id("S3-T7").domain({"alpha": 0.8})
    # resonant parameters are refused, not regularized
    assert not case_by_id("DISC-IM").domain({"alpha": 1.0 / 6.0})
    assert not case_by_id("DISC-L1").domain({"alpha": LN2 / (2.0 * PI)})
    assert not case_by_id("INTRO-1").domain({"a": LN2})
    assert not case_by_id("APPA").domain({"theta": 0.0, "a": LN2})


def test_out_of_domain_raises():
    with pytest.raises(DomainError):
        verify_case(case_by_id("T1-A"), {"alpha": 0.05})
    with pytest.raises(DomainError):
        evaluate_lhs(case_by_id("T2"), {"alpha": 0.1})


def test_spot_values():
    lhs, _ = evaluate_lhs(case_by_id("T1-A"), {"alpha": 0.25})
    assert abs(lhs - T1A_LHS_025) < 1e-9
    assert abs(evaluate_rhs(case_by_id("T1-A"), {"alpha": 1.0}) - T1A_RHS_1) < 1e-13
    assert abs(evaluate_rhs(case_by_id("T2"), {"alpha": 1.0}) - T2_RHS_1) < 1e-13
    assert abs(evaluate_rhs(case_by_id("EX-1"), {}) - EX1_VALUE) < 1e-14
    assert abs(evaluate_rhs(case_by_id("EX-2"), {}) - EX2_VALUE) < 1e-13
    assert abs(evaluate_rhs(case_by_id("EX-3"), {}) - EX3_VALUE) < 1e-13
    lhs, _ = evaluate_lhs(case_by_id("S3-T7"), {"alpha": 1.0})
    assert abs(lhs - T7_LHS_1) < 1e-9


def test_sine0_value():
    lhs, _ = evaluate_lhs(case_by_id("SINE0"), {})
    assert abs(lhs - SINE0_VALUE) < 1e-10


def test_intro1_vanishes_at_a_one():
    lhs, _ = evaluate_lhs(case_by_id("INTRO-1"), {"a": 1.0})
    assert abs(lhs) < 1e-10
    assert evaluate_rhs(case_by_id("INTRO-1"), {"a": 1.0}) == 0.0


def test_theta2_heaviside_off_branch():
    rhs = evaluate_rhs(case_by_id("THETA2"), {"theta": 0.0, "a": 2.0})
    assert abs(rhs - complex(-PI / 8.0, 0.0)) < 1e-15


def test_appa_reference_point():
    rhs = evaluate_rhs(case_by_id("APPA"), {"theta": PI / 4.0, "a": -1.0})
    assert abs(rhs - APPA_RHS) < 1e-14
    lhs, _ = evaluate_lhs(case_by_id("APPA"), {"theta": PI / 4.0, "a": -1.0})
    assert abs(lhs - APPA_RHS) < 1e-9


def test_complex_cost_carries_the_lhs():
    lhs, cost = evaluate_lhs(case_by_id("APPA"), {"theta": PI / 4.0, "a": -1.0})
    assert isinstance(lhs, complex)
    assert cost.value == lhs


def test_verify_case_row():
    row = verify_case(case_by_id("T2"), {"alpha": 1.0})
    assert row.status == "pass"
    assert row.abs_err <= max(1e-10, 1e-8 * abs(row.rhs))
    assert row.rel_err <= 1e-8
    assert row.evaluations > 0


def test_verify_case_turns_arithmetic_errors_into_error_rows():
    case = dataclasses.replace(case_by_id("T2"),
                               integrand=lambda p: lambda x, w: 1.0 / 0.0)
    row = verify_case(case, {"alpha": 1.0})
    assert row.status == "error"
    assert row.detail.startswith("ZeroDivisionError")


def test_parity_imaginary_parts_vanish():
    # even/odd pairing makes the imaginary contribution cancel
    for cid, params in (("SINE", {"a": 0.3}), ("COS", {"a": -1.0}),
                        ("INTRO-4", {"gamma": 2.5, "a": 0.3})):
        lhs, _ = evaluate_lhs(case_by_id(cid), params,
                              rtol=1e-10, atol=1e-12)
        assert abs(lhs.imag) < 1e-12


def test_proof_layer_consistency():
    # the product/series right sides agree with the elliptic right sides
    for pair_a, pair_b in (("T1-PA", "T1-A"), ("T1-PB", "T1-B"),
                           ("T4-PA", "T4-A"), ("T4-PB", "T4-B")):
        for alpha in (0.8, 1.0, 2.0):
            p = {"alpha": alpha}
            case_a, case_b = case_by_id(pair_a), case_by_id(pair_b)
            if not (case_a.domain(p) and case_b.domain(p)):
                continue
            assert abs(evaluate_rhs(case_a, p) - evaluate_rhs(case_b, p)) < 1e-11


def test_t2_triple_agreement():
    for alpha in (1.0, 1.5, 2.0):
        case = case_by_id("T2")
        lhs, _ = evaluate_lhs(case, {"alpha": alpha})
        rhs = evaluate_rhs(case, {"alpha": alpha})
        lam = lambert_alternating(modulus_from_alpha(alpha)).direct
        lam_form = PI / 4.0 - 0.5 * PI * alpha * lam
        assert abs(lhs - rhs) < 1e-9
        assert abs(lhs - lam_form) < 1e-9
        assert abs(rhs - lam_form) < 1e-9


def test_log_kernel_linear_combination():
    # the cosh+cos integral at 2 alpha splits into cosh-cos integrals at
    # alpha and 2 alpha through cosh(2u) - cos(2v) = 2(cosh u - cos v)(cosh u + cos v)
    plus, minus = case_by_id("T1-PB"), case_by_id("T1-PA")
    for alpha0 in (0.5, 1.0):
        lhs_plus, _ = evaluate_lhs(plus, {"alpha": 2.0 * alpha0})
        half, _ = evaluate_lhs(minus, {"alpha": alpha0})
        full, _ = evaluate_lhs(minus, {"alpha": 2.0 * alpha0})
        assert abs(lhs_plus - (half - full - 0.5 * PI * LN2)) < 1e-9


def test_appa_jump_matches_closed_form_difference():
    case = case_by_id("APPA")
    delta = 1e-4
    for theta in (0.0, PI / 4.0, -0.4):
        s = math.log(2.0 * math.cos(theta))
        lhs_in, _ = evaluate_lhs(case, {"theta": theta, "a": s - delta},
                                 rtol=1e-9, atol=1e-11)
        lhs_out, _ = evaluate_lhs(case, {"theta": theta, "a": s + delta},
                                  rtol=1e-9, atol=1e-11)
        rhs_in = evaluate_rhs(case, {"theta": theta, "a": s - delta})
        rhs_out = evaluate_rhs(case, {"theta": theta, "a": s + delta})
        assert abs((lhs_in - lhs_out) - (rhs_in - rhs_out)) < 1e-6
        # the discontinuity is the Heaviside term up to O(delta) drift
        pure = PI / (1.0 - cmath.exp(complex(-(s - delta), theta)))
        assert abs((lhs_in - lhs_out) - pure) < 1e-2


def test_disc_p_structure():
    for a in (-1.0, 0.3, 2.0):
        scale = PI ** 2 + 4.0 * a * a
        lhs1, _ = evaluate_lhs(case_by_id("DISC-P1"), {"a": a})
        lhs2, _ = evaluate_lhs(case_by_id("DISC-P2"), {"a": a})
        assert abs(lhs1 * scale - 2.0 * PI ** 2) < 1e-8 * scale
        assert abs(lhs2 * scale - 4.0 * PI * a) < 1e-8 * scale


def test_contour_trace():
    for alpha, rhs in ((1.0, T2_RHS_1), (2.0, T2_RHS_2)):
        value = contour_trace(alpha)
        assert abs(value.real - rhs) < 1e-8
        assert abs(value.imag) < 1e-9
    with pytest.raises(DomainError):
        contour_trace(0.2)


@pytest.mark.parametrize("alpha", (0.2207, 0.221))
def test_contour_trace_next_to_the_domain_edge(alpha):
    # the edge ln2/pi = 0.22064...: a pole of the kernel nears the path
    value = contour_trace(alpha)
    assert abs(value.real - evaluate_rhs(case_by_id("T2"), {"alpha": alpha})) < 1e-8
    assert abs(value.imag) < 1e-9


def test_contour_trace_rejects_nan_alpha():
    with pytest.raises(DomainError):
        contour_trace(math.nan)


def test_contour_path_points():
    pts = contour_path_points(129)
    assert len(pts) == 129
    x_mid, re_mid, im_mid = pts[64]
    assert abs(x_mid) < 1e-15
    assert abs(re_mid - LN2) < 1e-15
    assert im_mid == x_mid
    assert pts[0][1] < -3.0 and pts[-1][1] < -3.0
    with pytest.raises(DomainError):
        contour_path_points(32)


def test_residue_count():
    assert residue_count_appa(0.0, 0.0) == 2
    assert residue_count_appa(0.0, 1.0) == 1
    assert residue_count_appa(PI / 3.0, 0.1) == 1
    with pytest.raises(DomainError):
        residue_count_appa(0.0, LN2)
    with pytest.raises(DomainError):
        residue_count_appa(1.6, 0.0)


def test_sweep_all_rows_pass(sweep):
    assert sweep.summary["fail"] == 0
    assert sweep.summary["error"] == 0
    assert sweep.summary["pass"] > 200
    assert sweep.summary["skipped"] >= 3
    assert sweep.summary["total"] == sum(
        sweep.summary[k] for k in ("pass", "fail", "error", "skipped"))


def test_sweep_error_estimates_are_honest(sweep):
    # realized error never exceeds the reported estimate (plus the rounding
    # floor of evaluating both sides in doubles)
    for row in sweep.rows:
        if row.status != "pass":
            continue
        case = case_by_id(row.case_id)
        _, cost = evaluate_lhs(case, row.params)
        assert row.abs_err <= cost.error_estimate + 5e-13


def test_default_sweep_payload_is_pinned(sweep):
    # A change that moves the numerics on purpose updates both pins and
    # records the old and the new hash in CHANGES.md.
    payload = render_rows_json(sweep.rows).encode()
    assert hashlib.sha256(payload).hexdigest() == (
        "8f55efde928d2a1b4adccba8c9637b389d3410b0a9c74e2a8f6c9f4c0f8e2cac")
    assert sum(row.evaluations for row in sweep.rows) == 169_935


@pytest.mark.xfail(strict=True,
                   reason="ROADMAP item 5: Kronrod estimate not calibrated")
@pytest.mark.parametrize("alpha", (2.08417825196839, 7.4180911377434855))
def test_t2_estimate_bounds_the_error_off_grid(alpha):
    # both misses sit in the interior panel.  At alpha = 2.084 the lattice
    # cut at t = 3 period/4 leaves a 1e-6 wide panel 1.5e-9 from the log
    # singularity at pi/2: error 6.0e-10, estimate 4.6e-11.  At alpha = 7.418
    # the error is 4.6e-11 against an estimate of 1.1e-11.
    case = case_by_id("T2")
    params = {"alpha": alpha}
    row = verify_case(case, params)
    _, cost = evaluate_lhs(case, params)
    assert row.abs_err <= cost.error_estimate + 5e-13


@pytest.mark.parametrize("alpha", (4.17, 4.36, 4.77, 5.78, 6.37))
def test_disc_p4_pinch_points_above_the_split(alpha):
    # t_split = min(pi alpha, 30) falls on the first cos = -1 pinch point at
    # pi alpha, so the tail starts a quarter period below it; a pinch
    # point left in the interior panel would leave a wrong value behind a
    # tiny estimate
    case = case_by_id("DISC-P4")
    row = verify_case(case, {"alpha": alpha})
    _, cost = evaluate_lhs(case, {"alpha": alpha})
    assert row.status == "pass"
    assert row.abs_err <= cost.error_estimate + 5e-13


def test_offgrid_disc_p34_over_the_whole_domain():
    # the pinch points reach from the interior panel (small alpha) to past
    # the cap of the split (large alpha); below alpha = 0.0044 the kernels
    # need their scaled form to evaluate at all
    rng = random.Random(20261019)
    for case_id in ("DISC-P3", "DISC-P4"):
        case = case_by_id(case_id)
        for _ in range(16):
            params = {"alpha": math.exp(rng.uniform(math.log(0.002),
                                                    math.log(40.0)))}
            lhs, cost = evaluate_lhs(case, params)
            rhs = evaluate_rhs(case, params)
            err = abs(lhs - rhs)
            # verify_case's pass test at its default tolerances
            assert err <= max(1e-10, 1e-8 * abs(rhs)), (case_id, params)
            assert err <= cost.error_estimate + 5e-13, (case_id, params)


@pytest.mark.xfail(strict=True,
                   reason="the freq-0 tail closes before it reaches the pole")
@pytest.mark.parametrize("a", (16.0, 20.0))
def test_disc_p1_isolated_pole_is_resolved(a):
    # the pole at w = -a pinches the path at t = a with width e^{-a}/2; the
    # tail closes geometrically before t = a and misses its mass pi e^{-a}/2
    case = case_by_id("DISC-P1")
    row = verify_case(case, {"a": a})
    _, cost = evaluate_lhs(case, {"a": a})
    assert row.status == "pass"
    assert row.abs_err <= cost.error_estimate + 5e-13


# Closed forms that hold only on the first branch: each fails below its
# first jump threshold until the Heaviside sums join its right side.
FIRST_BRANCH_DEFECTS = {"DISC-IM": 1.0 / 6.0, "DISC-L2": LN2 / PI,
                        "DISC-L1": LN2 / (2.0 * PI)}


def test_offgrid_alpha_sweep():
    rng = random.Random(20261017)
    alphas = tuple(0.1 * math.exp(math.log(120.0) * rng.random())
                   for _ in range(30))
    ids = tuple(c.id for c in catalog() if c.param_kind == "alpha")
    report = run_verification(RunConfig(case_filter=ids, alpha_grid=alphas,
                                        jobs=2))
    assert report.summary["error"] == 0
    assert report.summary["pass"] > 500
    for row in report.rows:
        if row.status == "fail":
            threshold = FIRST_BRANCH_DEFECTS.get(row.case_id, 0.0)
            assert row.params["alpha"] < threshold, (row.case_id, row.params)


def test_offgrid_decay_only_tails_are_honest():
    # tails without a period end in a geometric remainder although their
    # slowly varying factor (log t, 1/t^2, ...) is not constant
    rng = random.Random(20261018)
    draws = {"a": (-4.0, 4.0), "theta": (-1.4, 1.4), "gamma": (0.0, 5.0)}
    checked = 0
    for case in catalog():
        if case.freq != 0.0 or case.param_kind == "fixed":
            continue
        for _ in range(12):
            if case.param_kind == "alpha":    # DISC-IM on its first branch
                params = {"alpha": math.exp(rng.uniform(math.log(1.0 / 6.0),
                                                        math.log(8.0)))}
            else:
                params = {k: rng.uniform(*draws[k])
                          for k in PARAM_NAMES[case.param_kind]}
            if not case.domain(params):
                continue
            row = verify_case(case, params)
            _, cost = evaluate_lhs(case, params)
            assert row.status == "pass", (case.id, params)
            assert row.abs_err <= cost.error_estimate + 5e-13, (case.id, params)
            checked += 1
    assert checked > 100


def test_sweep_row_order_is_canonical(sweep):
    order = {c.id: i for i, c in enumerate(catalog())}
    keys = [(order[r.case_id],) + tuple(r.params[k] for k in
            ("theta", "gamma", "alpha", "a") if k in r.params)
            for r in sweep.rows]
    assert keys == sorted(keys)
