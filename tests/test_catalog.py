"""Identity catalog: case table, evaluation, cross-layer consistency."""

import cmath
import hashlib
import importlib
import math
import pickle
import random

import pytest

from logtrig import (AccuracyError, DomainError, QuadratureResult, case_by_id,
                     catalog, contour_path_points, contour_trace, evaluate_lhs,
                     evaluate_rhs, integrate_endpoint_oscillatory,
                     lambert_alternating, verify_case)
from logtrig.catalog import (ALPHA_GRID, PARAM_NAMES, default_params_grid,
                             lhs_key)
from logtrig import quadrature
from logtrig.quadrature import Pinch, _y
from logtrig.report import RunConfig, render_rows_json, run_verification

PI = math.pi
LN2 = math.log(2.0)
SQRT3 = math.sqrt(3.0)
EPS = 2.0 ** -52

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


# Each path as the catalog's kernels write it in: an x-form kernel f(x, w)
# read at the path's abscissae x(y), in the order the kernels add them, as
# the engine's one integrand g(y, w) over (0, pi/2], w = log(2 sin y).
# Keyed by (map_kind, number of ends); a conjugate-even case takes one end.
FOLDS = {
    ("log-cos", 1): lambda f: lambda y, w: f(PI / 2 - y, w),
    ("log-cos", 2): lambda f: lambda y, w: f(PI / 2 - y, w) + f(y - PI / 2, w),
    ("log-sin", 2): lambda f: lambda y, w: f(y, w) + f(PI - y, w),
    ("log-sin-half", 2):
        lambda f: lambda y, w: 2.0 * (f(2.0 * y, w) + f(2.0 * PI - 2.0 * y, w)),
}


def path_of(case):
    """The FOLDS key of the path that the case's integrand writes in."""
    return case.map_kind, 1 if case.conjugate_even else len(case.osc_ends)


def tail_abscissae(case):
    """t -> x(t) next to each end where the case's w diverges, as its path
    reads the x-form kernel at the tail node y(t): a recording kernel reads
    each x, one per end."""
    calls = []
    g = FOLDS[case.map_kind, len(case.osc_ends)](
        lambda x, w: calls.append(x) or 0.0)

    def x_of(i):
        def x(t):
            calls.clear()
            g(_y(t), -t)
            return calls[i]
        return x

    return [x_of(i) for i in range(len(case.osc_ends))]


ZETA3 = 1.2020569031595942854

# (path, kernel f(x, w), its integral over the path): f = 1 gives the
# path's length and f = x its first moment; x w on the one-ended log-cos
# path is -7 zeta(3)/16, and +7 zeta(3)/16 with the orientation of x = pi/2
# - y reversed; x^2 w is -pi zeta(3)/2 over (-pi/2, pi/2) and (0, pi) and
# -4 pi zeta(3) over (0, 2 pi)
PATH_INTEGRALS = [
    (("log-cos", 1), "1", PI / 2), (("log-cos", 2), "1", PI),
    (("log-sin", 2), "1", PI), (("log-sin-half", 2), "1", 2.0 * PI),
    (("log-cos", 1), "x", PI ** 2 / 8.0), (("log-cos", 2), "x", 0.0),
    (("log-sin", 2), "x", PI ** 2 / 2.0), (("log-sin-half", 2), "x", 2.0 * PI ** 2),
    (("log-cos", 1), "x w", -7.0 * ZETA3 / 16.0),
    (("log-cos", 2), "x^2 w", -PI * ZETA3 / 2.0),
    (("log-sin", 2), "x^2 w", -PI * ZETA3 / 2.0),
    (("log-sin-half", 2), "x^2 w", -4.0 * PI * ZETA3)]
KERNELS = {"1": lambda x, w: 1.0, "x": lambda x, w: x,
           "x w": lambda x, w: x * w, "x^2 w": lambda x, w: x * x * w}


@pytest.mark.parametrize("path, kernel, exact", PATH_INTEGRALS,
                         ids=[f"{p[0]}-{p[1]}-{k}" for p, k, _ in PATH_INTEGRALS])
def test_path_table_integrates_each_path(path, kernel, exact):
    # each path's abscissae, as the catalog's kernels read them, carry a
    # kernel f(x, w) onto the engine's one integral over (0, pi/2] in
    # log(2 sin y); test_kernels_match_reference_bit_for_bit holds every
    # kernel to its x-form reference read through the same table
    g = FOLDS[path](KERNELS[kernel])
    res = integrate_endpoint_oscillatory(g, tolerance=1e-13)
    assert abs(res.value - exact) <= res.error_estimate, (res.value, exact)


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
                                 ("DISC-L2", "DISC-P3"), ("SINE", "SINE0"),
                                 ("THETA2", "COS")))
def test_cases_of_one_kernel_share_one_integrand(ids):
    # one factory per kernel on one path; a kernel on two paths (COS and
    # THETA2) has one x-form reference, which each path's factory matches
    # bit for bit, and DISC-P3 matches DISC-L2's in its squared form
    first, *rest = (case_by_id(i) for i in ids)
    for case in rest:
        if path_of(case) == path_of(first):
            assert case.integrand is first.integrand, case.id
        else:
            assert reference_of(case) in (reference_of(first),
                                          SQUARED_REFERENCES.get(first.id)), case.id


def declared_pinches(case, params):
    """The Pinch records among the case's features at ``params``."""
    return [s for s in case.features({**case.fixed_params, **params})
            if isinstance(s, Pinch)]


def test_pinch_quarters_are_declared_by_every_periodic_kernel():
    # exactly the kernels that oscillate in t declare one Pinch, whose
    # quarters are a subset of the quarter-period points {0, 1, 2, 3}; with
    # a residue its tails subtract those pinches as poles, without one they
    # cut at them
    for case in catalog():
        pinches = declared_pinches(case, {"alpha": 1.0})
        assert len(pinches) == bool(case.freq), case.id
        for pinch in pinches:
            assert set(pinch.quarters) <= {0, 1, 2, 3}, case.id
            assert len(set(pinch.quarters)) == len(pinch.quarters), case.id


def nearest_pinch(case, params, period, t):
    """Distance from t to the closest declared pinch: a quarter point j
    period / 4 whose j mod 4 the case's Pinch declares, a pole centre where
    the Pinch has a residue."""
    pinch, = declared_pinches(case, params)
    j = round(4.0 * t / period)
    return min(abs(t - k * period / 4.0) for k in range(j - 4, j + 5)
               if k % 4 in pinch.quarters)


@pytest.mark.parametrize("period", (20.0, 40.0))
@pytest.mark.parametrize("case", [c for c in catalog() if c.freq],
                         ids=lambda c: c.id)
def test_kernel_pinches_at_a_declared_quarter(case, period):
    # Over the first tail period from t = 2, at each end, the kernel's
    # pinch is its largest |f(x(t), -t)|, the minimum of its denominator,
    # or, where the numerator vanishes there too (sin(w/alpha) over cosh -/+
    # cos), its steepest change in w, at x = x(2) so that factors of x alone
    # (sin 2x in T3) do not decay across the period.  Each symptom can be
    # masked: the largest |f| of T3-B sits at t = 2 by that decay, and the
    # steepest change of DISC-CONTOUR there by the decay of 1/(1 - e^{-z})
    # in w.  One of the two lies within period/16 of a declared quarter,
    # which for DISC-P3/P4 is a pole centre (2k+1) pi alpha.  Each end
    # reads the kernel through its x-form reference, which the integrand
    # matches bit for bit.
    alpha = period * case.freq / (2.0 * PI)
    params, reference = {**case.fixed_params, "alpha": alpha}, reference_of(case)

    def f(x, w):
        return reference(params, x, w)
    n = 4000
    ts = [2.0 + period * i / n for i in range(n + 1)]
    for x_of in tail_abscissae(case):
        largest = max(ts, key=lambda t: abs(f(x_of(t), -t)))
        fixed = [f(x_of(2.0), -t) for t in ts]
        steepest = ts[max(range(1, n),
                          key=lambda i: abs(fixed[i + 1] - fixed[i - 1]))]
        assert min(nearest_pinch(case, params, period, largest),
                   nearest_pinch(case, params, period, steepest)) <= period / 16.0, (
            x_of(2.0), largest, steepest)


def test_conjugate_even_cases_are_the_symmetric_log_cos_ones():
    even = [c for c in catalog() if c.conjugate_even]
    assert [c.id for c in even] == ["INTRO-4", "SINE", "SINE0", "COS",
                                    "DISC-CONTOUR"]
    for case in even:
        assert (case.interval, case.map_kind) == ((-PI / 2, PI / 2), "log-cos")
        assert case.osc_ends == ("lower", "upper")


@pytest.mark.parametrize("case", [c for c in catalog() if c.conjugate_even],
                         ids=lambda c: c.id)
def test_conjugate_even_kernels_mirror_across_zero(case):
    # f(-x, w) = conj f(x, w) to 4 ulps, at every default grid point, at
    # seeded x of the interior panel and at seeded (x(t), -t) of the tail.
    # The integrand reads x = pi/2 - y, so the x-form kernel at x is the
    # integrand at y = pi/2 - x, and at -x the integrand at pi/2 + x; with x
    # on the grid of 2^-49, which holds pi/2, both y and both x are exact.
    rng = random.Random(26)
    checked = 0
    for params in default_params_grid(case):
        merged = {**case.fixed_params, **params}
        if not case.domain(merged):
            continue
        g = case.integrand(merged)
        xs = [round(rng.uniform(0.0, PI / 2) * 2.0 ** 49) / 2.0 ** 49
              for _ in range(40)]
        points = [(x, math.log(2.0 * math.cos(x))) for x in xs]
        points += [(round((PI / 2 - _y(t)) * 2.0 ** 49) / 2.0 ** 49, -t)
                   for t in (rng.uniform(2.0, 60.0) for _ in range(40))]
        for x, w in points:
            mirror, conj = g(PI / 2 + x, w), g(PI / 2 - x, w).conjugate()
            ulps = 4.0 * math.ulp(abs(conj))
            assert abs(mirror.real - conj.real) <= ulps, (merged, x, w)
            assert abs(mirror.imag - conj.imag) <= ulps, (merged, x, w)
            checked += 1
    assert checked >= 80


def cosh_minus_cos(u, v):
    return 2.0 * (math.sinh(0.5 * u) ** 2 + math.sin(0.5 * v) ** 2)


def cosh_plus_cos(u, v):
    return 2.0 * (math.sinh(0.5 * u) ** 2 + math.cos(0.5 * v) ** 2)


def scaled_cosh_minus_cos(u, v):
    return math.expm1(-u) ** 2 + 4.0 * math.exp(-u) * math.sin(0.5 * v) ** 2


def scaled_cosh_plus_cos(u, v):
    return math.expm1(-u) ** 2 + 4.0 * math.exp(-u) * math.cos(0.5 * v) ** 2


# The root h of a denominator that can leave the normal range, for trig =
# sin (cosh - cos) or cos (cosh + cos): cosh(u) -/+ cos(v) = 2 h^2, and
# scaled by 2 e^{-u}, h^2
def cosh_cos_root(trig, u, v):
    return math.hypot(math.sinh(0.5 * u), trig(0.5 * v))


def scaled_cosh_cos_root(trig, u, v):
    return math.hypot(math.expm1(-u), 2.0 * math.exp(-0.5 * u) * trig(0.5 * v))


def t1_reference(trig):
    return lambda al, x, w: LN2 + 2.0 * math.log(cosh_cos_root(trig, x / al, w / al))


def t4_reference(trig):
    def f(al, x, w):
        h = cosh_cos_root(trig, x / al, w / al)
        return math.cos(2.0 * x) * math.sin(w / al) / (2.0 * h) / h
    return f


def l_reference(trig):
    def f(al, x, w):
        e, h = math.exp(-0.5 * (x / al)), scaled_cosh_cos_root(trig, x / al, w / al)
        return 2.0 * e * e * math.sin(w / al) / h / h
    return f


def t6_reference(al, x, w):
    s = (PI - 6.0 * x) / (2.0 * al)
    return (math.copysign(-math.expm1(-2.0 * abs(s)), s)
            / scaled_cosh_plus_cos(abs(s), 3.0 * w / al))


def im_reference(al, x, w):
    s = abs(w) / al
    h = scaled_cosh_cos_root(math.sin, s, x / al)
    return math.copysign(-math.expm1(-2.0 * s), w) / h / h


def im_squared(al, x, w):
    s = abs(w) / al
    return math.copysign(-math.expm1(-2.0 * s), w) / scaled_cosh_minus_cos(s, x / al)


def contour_reference(al, x, w):
    z = complex(w, x)
    return (complex(-math.tan(x), 1.0)
            / ((1.0 - cmath.exp(-z)) * cmath.cos(z / (2.0 * al))) / 8j)


# Each alpha kernel in x-form, the denominator kernels as a call of the
# denominator formulas above, the form the catalog computed before it wrote
# them inline.
ALPHA_REFERENCES = {
    "T1-A": t1_reference(math.sin),
    "T1-B": t1_reference(math.cos),
    "T2": lambda al, x, w: (math.cosh(0.5 * x / al) * math.cos(0.5 * w / al)
                            / cosh_plus_cos(x / al, w / al)),
    "T3-A": lambda al, x, w: (math.sin(2.0 * x) * math.sinh(x / al)
                              / cosh_minus_cos(x / al, w / al)),
    "T3-B": lambda al, x, w: (math.sin(2.0 * x) * math.sinh(x / al)
                              / cosh_plus_cos(x / al, w / al)),
    "T4-A": t4_reference(math.sin),
    "T4-B": t4_reference(math.cos),
    "S3-T5A": lambda al, x, w: (math.sinh((4.0 * x - PI) / al)
                                / cosh_minus_cos((4.0 * x - PI) / al, 4.0 * w / al)),
    "S3-T5B": lambda al, x, w: (math.sinh((4.0 * x - PI) / al)
                                / cosh_plus_cos((4.0 * x - PI) / al, 4.0 * w / al)),
    "S3-T6": t6_reference,
    "S3-T7": lambda al, x, w: (math.atan(math.tanh((PI - 3.0 * x) / (4.0 * al))
                                         * math.tan(1.5 * w / al)) * math.cos(x)),
    "DISC-CONTOUR": contour_reference,
    "DISC-L1": l_reference(math.sin),
    "DISC-L2": l_reference(math.cos),
    "DISC-P4": lambda al, x, w: (-math.expm1(-2.0 * x / al)
                                 / scaled_cosh_plus_cos(x / al, w / al)),
    "DISC-IM": im_reference,
}


def by_alpha(reference):
    return lambda p, x, w: reference(p["alpha"], x, w)


def intro4_reference(p, x, w):
    g = p["gamma"]
    return (math.exp(g * w) * complex(math.cos(g * x), math.sin(g * x))
            / complex(w - p["a"], x))


def theta2_reference(p, x, w):
    # COS is theta = 0
    return math.cos(2.0 * x) / complex(w - p["a"], x + p.get("theta", 0.0))


def distance(p, x, w, sign):
    """hypot(x, w - sign a): the distance whose square the INTRO and
    DISC-P1/P2 kernels divide by or take the log of."""
    return math.hypot(x, w - sign * p["a"])


def intro3_reference(p, x, w):
    h = distance(p, x, w, 1.0)
    return x * math.sin(2.0 * x) / h / h


def p1_reference(p, x, w):
    h = distance(p, x, w, -1.0)
    return x / h / h


def p2_reference(p, x, w):
    h = distance(p, x, w, -1.0)
    return (w + p["a"]) / h / h


# Every kernel in x-form, as reference(params, x, w); a kernel that two
# paths read (COS and THETA2) has one reference.
KERNEL_REFERENCES = {
    **{case_id: by_alpha(ref) for case_id, ref in ALPHA_REFERENCES.items()},
    "INTRO-1": lambda p, x, w: 2.0 * math.log(distance(p, x, w, 1.0)),
    "INTRO-2": lambda p, x, w: (2.0 * math.log(distance(p, x, w, 1.0))
                                * math.cos(2.0 * x)),
    "INTRO-3": intro3_reference,
    "INTRO-4": intro4_reference,
    "SINE": lambda p, x, w: 1j * math.sin(2.0 * x) / complex(w - p["a"], x),
    "COS": theta2_reference,
    "THETA2": theta2_reference,
    "APPA": lambda p, x, w: 1.0 / complex(w - p["a"], x + p["theta"]),
    "DISC-P1": p1_reference,
    "DISC-P2": p2_reference,
}

# The kernels above that take a root through hypot, in the squared x-forms
# the catalog computed before, which lose their digits once a square leaves
# the normal range.  DISC-P3 reads DISC-L2's kernel in this form.
SQUARED_REFERENCES = {
    "T1-A": by_alpha(lambda al, x, w: math.log(cosh_minus_cos(x / al, w / al))),
    "T1-B": by_alpha(lambda al, x, w: math.log(cosh_plus_cos(x / al, w / al))),
    "T4-A": by_alpha(lambda al, x, w: (math.cos(2.0 * x) * math.sin(w / al)
                                       / cosh_minus_cos(x / al, w / al))),
    "T4-B": by_alpha(lambda al, x, w: (math.cos(2.0 * x) * math.sin(w / al)
                                       / cosh_plus_cos(x / al, w / al))),
    "DISC-L1": by_alpha(lambda al, x, w: (2.0 * math.exp(-x / al) * math.sin(w / al)
                                          / scaled_cosh_minus_cos(x / al, w / al))),
    "DISC-L2": by_alpha(lambda al, x, w: (2.0 * math.exp(-x / al) * math.sin(w / al)
                                          / scaled_cosh_plus_cos(x / al, w / al))),
    "DISC-IM": by_alpha(im_squared),
    "INTRO-1": lambda p, x, w: math.log(x * x + (w - p["a"]) ** 2),
    "INTRO-2": lambda p, x, w: (math.log(x * x + (w - p["a"]) ** 2)
                                * math.cos(2.0 * x)),
    "INTRO-3": lambda p, x, w: x * math.sin(2.0 * x) / (x * x + (w - p["a"]) ** 2),
    "DISC-P1": lambda p, x, w: x / (x * x + (w + p["a"]) ** 2),
    "DISC-P2": lambda p, x, w: (w + p["a"]) / (x * x + (w + p["a"]) ** 2),
}
KERNEL_REFERENCES["DISC-P3"] = SQUARED_REFERENCES["DISC-L2"]


def reference_of(case):
    """The x-form reference of the case's kernel, found through the case
    that names it in KERNEL_REFERENCES when the kernel is shared."""
    return next(ref for case_id, ref in KERNEL_REFERENCES.items()
                if case_by_id(case_id).integrand is case.integrand)


# seeded parameter draws, alpha log-uniform
DRAWS = {"alpha": lambda rng: math.exp(rng.uniform(math.log(0.002), math.log(40.0))),
         "a": lambda rng: rng.uniform(-20.0, 20.0),
         "theta": lambda rng: rng.uniform(-1.5, 1.5),
         "gamma": lambda rng: rng.uniform(0.0, 5.0)}


def kernel_draws(case):
    """20 seeded in-domain parameter points of the case, each with 100
    seeded (y, w): 50 on the interior panel (w > -2) and 50 on the tail (w =
    -t, t in [2, 60])."""
    rng = random.Random(24)
    checked = 0
    while checked < 20:
        params = {n: DRAWS[n](rng) for n in PARAM_NAMES[case.param_kind]}
        if not case.domain(params):
            continue
        ys = [rng.uniform(_y(2.0), PI / 2) for _ in range(50)]
        points = [(y, math.log(2.0 * math.sin(y))) for y in ys]
        points += [(_y(t), -t) for t in (rng.uniform(2.0, 60.0) for _ in range(50))]
        yield params, points
        checked += 1


def folded(case, reference, params):
    """The x-form reference read at the case's path abscissae and summed in
    the kernels' order (FOLDS), as the integrand g(y, w)."""
    return FOLDS[path_of(case)](lambda x, w: reference(params, x, w))


@pytest.mark.parametrize("case_id", KERNEL_REFERENCES)
def test_kernels_match_reference_bit_for_bit(case_id):
    # The integrand g(y, w) equals its folded x-form reference at every draw
    case = case_by_id(case_id)
    for params, points in kernel_draws(case):
        kernel, reference = case.integrand(params), folded(
            case, KERNEL_REFERENCES[case_id], params)
        for y, w in points:
            assert kernel(y, w) == reference(y, w), (params, y, w)


@pytest.mark.parametrize("case_id", SQUARED_REFERENCES)
def test_root_kernels_agree_with_their_squared_forms(case_id):
    # Where every square stays in the normal range, as at every draw of the
    # bit-for-bit test, the kernel that takes its root through hypot agrees
    # with its squared form within 4 eps of the value, or of 1 for the log
    # kernels, whose value crosses 0.  The largest difference seen is 2.9
    # eps (DISC-L1 at alpha = 0.66, t = 44.6)
    case = case_by_id(case_id)
    scale = 1.0 if case_id in ("T1-A", "T1-B", "INTRO-1", "INTRO-2") else 0.0
    for params, points in kernel_draws(case):
        root, squared = (folded(case, ref[case_id], params)
                         for ref in (KERNEL_REFERENCES, SQUARED_REFERENCES))
        for y, w in points:
            value = squared(y, w)
            assert abs(root(y, w) - value) <= 4.0 * EPS * max(abs(value), scale), (
                params, y, w)


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
        evaluate_lhs(case_by_id("T2"), {"alpha": 0.1}, 1e-10)


def test_spot_values():
    lhs, _ = evaluate_lhs(case_by_id("T1-A"), {"alpha": 0.25}, 1e-10)
    assert abs(lhs - T1A_LHS_025) < 1e-9
    assert abs(evaluate_rhs(case_by_id("T1-A"), {"alpha": 1.0}) - T1A_RHS_1) < 1e-13
    assert abs(evaluate_rhs(case_by_id("T2"), {"alpha": 1.0}) - T2_RHS_1) < 1e-13
    assert abs(evaluate_rhs(case_by_id("EX-1"), {}) - EX1_VALUE) < 1e-14
    assert abs(evaluate_rhs(case_by_id("EX-2"), {}) - EX2_VALUE) < 1e-13
    assert abs(evaluate_rhs(case_by_id("EX-3"), {}) - EX3_VALUE) < 1e-13
    lhs, _ = evaluate_lhs(case_by_id("S3-T7"), {"alpha": 1.0}, 1e-10)
    assert abs(lhs - T7_LHS_1) < 1e-9


def test_sine0_value():
    lhs, _ = evaluate_lhs(case_by_id("SINE0"), {}, 1e-10)
    assert abs(lhs - SINE0_VALUE) < 1e-10


def test_intro1_vanishes_at_a_one():
    lhs, _ = evaluate_lhs(case_by_id("INTRO-1"), {"a": 1.0}, 1e-10)
    assert abs(lhs) < 1e-10
    assert evaluate_rhs(case_by_id("INTRO-1"), {"a": 1.0}) == 0.0


def test_theta2_heaviside_off_branch():
    rhs = evaluate_rhs(case_by_id("THETA2"), {"theta": 0.0, "a": 2.0})
    assert abs(rhs - complex(-PI / 8.0, 0.0)) < 1e-15


def test_appa_reference_point():
    rhs = evaluate_rhs(case_by_id("APPA"), {"theta": PI / 4.0, "a": -1.0})
    assert abs(rhs - APPA_RHS) < 1e-14
    lhs, _ = evaluate_lhs(case_by_id("APPA"), {"theta": PI / 4.0, "a": -1.0},
                          1e-10)
    assert abs(lhs - APPA_RHS) < 1e-9


def test_complex_cost_carries_the_lhs():
    lhs, cost = evaluate_lhs(case_by_id("APPA"), {"theta": PI / 4.0, "a": -1.0},
                             1e-10)
    assert isinstance(lhs, complex)
    assert cost.value == lhs


def test_verify_case_row():
    row = verify_case(case_by_id("T2"), {"alpha": 1.0})
    assert row.status == "pass"
    assert row.abs_err <= max(1e-10, 1e-8 * abs(row.rhs))
    assert row.rel_err <= 1e-8
    assert row.evaluations > 0


def test_records_are_immutable_and_pickle():
    row = verify_case(case_by_id("T2"), {"alpha": 1.0})
    with pytest.raises(AttributeError):
        row.status = "fail"
    with pytest.raises(AttributeError):
        row.note = "extra"
    assert pickle.loads(pickle.dumps(row)) == row
    config = RunConfig(case_filter=("T2",), jobs=2)
    assert pickle.loads(pickle.dumps(config)) == config
    assert config._replace(jobs=1) == RunConfig(case_filter=("T2",))
    # every case without fixed parameters shares one read-only default
    with pytest.raises(TypeError):
        case_by_id("T2").fixed_params["alpha"] = 1.0
    with pytest.raises(TypeError):
        case_by_id("EX-1").fixed_params["alpha"] = 1.0


def test_verify_case_turns_arithmetic_errors_into_error_rows():
    case = case_by_id("T2")._replace(
        integrand=lambda p: lambda x, w: 1.0 / 0.0)
    row = verify_case(case, {"alpha": 1.0})
    assert row.status == "error"
    assert row.detail.startswith("ZeroDivisionError")


SHARED_LHS_CASES = ("T1-A", "T1-PA", "T1-B", "T1-PB", "EX-1", "T4-A", "T4-PA",
                    "T2", "EX-2", "S3-T6", "EX-3")
SHARED_LHS_CONFIG = RunConfig(case_filter=SHARED_LHS_CASES,
                              alpha_grid=(0.5, SQRT3, 2.0))


def test_sweep_integrates_each_shared_lhs_once():
    report = run_verification(SHARED_LHS_CONFIG)
    groups = {}
    for row in report.rows:
        case = case_by_id(row.case_id)
        alone = verify_case(case, row.params)
        assert (row.lhs, row.rhs, row.abs_err, row.status) == (
            alone.lhs, alone.rhs, alone.abs_err, alone.status), row
        groups.setdefault(lhs_key(case, row.params), []).append(row)
    # five kernels at three alphas; EX-1, EX-2 and EX-3 join the alpha
    # cases' groups
    assert len(report.rows) == 27 and len(groups) == 15
    assert len(groups[lhs_key(case_by_id("EX-3"), {})]) == 2
    for rows in groups.values():
        assert [r.evaluations > 0 for r in rows] == (
            [True] + [False] * (len(rows) - 1))
        assert all(r.detail == "lhs of " + rows[0].case_id for r in rows[1:])


def offgrid_alphas(seed, n=30, lo=0.1, hi=12.0):
    """The alphas of the benchmark's offgrid-alpha workload at ``seed``: one
    log-uniform draw in each of n equal slices of [log lo, log hi)."""
    rng = random.Random(seed)
    span = math.log(hi / lo)
    return tuple(lo * math.exp(span * (i + rng.random()) / n) for i in range(n))


@pytest.mark.parametrize("config, groups", (
    (RunConfig(), 34),
    (RunConfig(case_filter=tuple(c.id for c in catalog() if c.param_kind == "alpha"),
               alpha_grid=offgrid_alphas(1)), 108)), ids=("default", "offgrid-1"))
def test_equal_lhs_keys_give_identical_integrals(config, groups):
    # run_verification integrates each lhs_key once and hands the result to
    # every row of the group; that holds only if every member, integrated
    # on its own at the same tolerance, gives the same value, estimate and
    # evaluation count to the bit
    keys = {}
    for case in catalog():
        if config.case_filter and case.id not in config.case_filter:
            continue
        for params in default_params_grid(case, config.alpha_grid):
            try:
                keys.setdefault(lhs_key(case, params), []).append((case, params))
            except DomainError:
                pass
    shared = [members for members in keys.values() if len(members) > 1]
    assert len(shared) == groups
    for members in shared:
        results = {repr(evaluate_lhs(case, params, 1e-10)[1][:3])
                   for case, params in members}
        assert len(results) == 1, [(case.id, params) for case, params in members]


def test_shared_lhs_payload_does_not_depend_on_jobs():
    serial = run_verification(SHARED_LHS_CONFIG)
    pooled = run_verification(SHARED_LHS_CONFIG._replace(jobs=2))
    assert render_rows_json(serial.rows) == render_rows_json(pooled.rows)


def test_failed_shared_lhs_is_attempted_once(monkeypatch):
    calls = []

    def failing(case, params, tolerance):
        calls.append(case.id)
        raise AccuracyError("no convergence", 0.0, 1.0, evaluations=75)

    # the package's catalog() function shadows the module attribute
    monkeypatch.setattr(importlib.import_module("logtrig.catalog"),
                        "evaluate_lhs", failing)
    report = run_verification(RunConfig(case_filter=("T1-A", "T1-PA"),
                                        alpha_grid=(2.0,)))
    assert calls == ["T1-A"]
    assert [r.status for r in report.rows] == ["error", "error"]
    assert [r.evaluations for r in report.rows] == [75, 0]
    assert [r.detail for r in report.rows] == ["no convergence"] * 2


def test_parity_imaginary_parts_vanish():
    # even/odd pairing makes the imaginary contribution cancel
    for cid, params in (("SINE", {"a": 0.3}), ("COS", {"a": -1.0}),
                        ("INTRO-4", {"gamma": 2.5, "a": 0.3})):
        lhs, _ = evaluate_lhs(case_by_id(cid), params, 1e-12)
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
        lhs, _ = evaluate_lhs(case, {"alpha": alpha}, 1e-10)
        rhs = evaluate_rhs(case, {"alpha": alpha})
        lam = lambert_alternating(alpha).direct
        lam_form = PI / 4.0 - 0.5 * PI * alpha * lam
        assert abs(lhs - rhs) < 1e-9
        assert abs(lhs - lam_form) < 1e-9
        assert abs(rhs - lam_form) < 1e-9


def test_log_kernel_linear_combination():
    # the cosh+cos integral at 2 alpha splits into cosh-cos integrals at
    # alpha and 2 alpha through cosh(2u) - cos(2v) = 2(cosh u - cos v)(cosh u + cos v)
    plus, minus = case_by_id("T1-PB"), case_by_id("T1-PA")
    for alpha0 in (0.5, 1.0):
        lhs_plus, _ = evaluate_lhs(plus, {"alpha": 2.0 * alpha0}, 1e-10)
        half, _ = evaluate_lhs(minus, {"alpha": alpha0}, 1e-10)
        full, _ = evaluate_lhs(minus, {"alpha": 2.0 * alpha0}, 1e-10)
        assert abs(lhs_plus - (half - full - 0.5 * PI * LN2)) < 1e-9


def test_appa_jump_matches_closed_form_difference():
    case = case_by_id("APPA")
    delta = 1e-4
    for theta in (0.0, PI / 4.0, -0.4):
        s = math.log(2.0 * math.cos(theta))
        rhs_in = evaluate_rhs(case, {"theta": theta, "a": s - delta})
        rhs_out = evaluate_rhs(case, {"theta": theta, "a": s + delta})
        # each side at its row tolerance for rtol 1e-9, atol 1e-11
        lhs_in, _ = evaluate_lhs(case, {"theta": theta, "a": s - delta},
                                 max(1e-11, 1e-9 * abs(rhs_in)))
        lhs_out, _ = evaluate_lhs(case, {"theta": theta, "a": s + delta},
                                  max(1e-11, 1e-9 * abs(rhs_out)))
        assert abs((lhs_in - lhs_out) - (rhs_in - rhs_out)) < 1e-6
        # the discontinuity is the Heaviside term up to O(delta) drift
        pure = PI / (1.0 - cmath.exp(complex(-(s - delta), theta)))
        assert abs((lhs_in - lhs_out) - pure) < 1e-2


def test_disc_p_structure():
    for a in (-1.0, 0.3, 2.0):
        scale = PI ** 2 + 4.0 * a * a
        lhs1, _ = evaluate_lhs(case_by_id("DISC-P1"), {"a": a}, 1e-10)
        lhs2, _ = evaluate_lhs(case_by_id("DISC-P2"), {"a": a}, 1e-10)
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


def test_sweep_all_rows_pass(sweep):
    assert sweep.summary["fail"] == 0
    assert sweep.summary["error"] == 0
    assert sweep.summary["pass"] > 200
    assert sweep.summary["skipped"] >= 3
    assert sweep.summary["total"] == sum(
        sweep.summary[k] for k in ("pass", "fail", "error", "skipped"))


def row_estimate(row, rtol=1e-8, atol=1e-10):
    """Error estimate of the integral behind a ``verify_case`` row at (rtol,
    atol): its row tolerance max(atol, rtol |rhs|), asked as one absolute
    budget, as ``verify_case`` asks it.  The integral's value must be the
    row's lhs."""
    lhs, cost = evaluate_lhs(case_by_id(row.case_id), row.params,
                             max(atol, rtol * abs(row.rhs)))
    assert lhs == row.lhs, (row.case_id, row.params)
    return cost.error_estimate


def test_sweep_error_estimates_are_honest(sweep):
    # realized error never exceeds the reported estimate (plus the rounding
    # floor of evaluating both sides in doubles) of the integral the row used
    for row in sweep.rows:
        if row.status == "pass":
            assert row.abs_err <= row_estimate(row) + 5e-13


def test_default_sweep_payload_is_pinned(sweep):
    # A change that moves the numerics on purpose updates both pins and
    # records the old and the new hash in CHANGES.md.
    payload = render_rows_json(sweep.rows).encode()
    assert hashlib.sha256(payload).hexdigest() == (
        "7f5839d426a775c2b1406f9003b49fc832ff39fc28e2ad1acf78f9f8e3f5f5b5")
    assert sum(row.evaluations for row in sweep.rows) == 50_190


def test_tight_sweep_payload_is_pinned():
    # the default grids at rtol 1e-10 and atol 1e-12, where the tails run
    # longest: a second budget, pinned like the first
    report = run_verification(RunConfig(rtol=1e-10, atol=1e-12, jobs=2))
    payload = render_rows_json(report.rows).encode()
    assert hashlib.sha256(payload).hexdigest() == (
        "0d5a33efcd83c310cb1ee1c16a695c2a4748e0d5ee597897c27e97f23a92e6d2")
    assert sum(row.evaluations for row in report.rows) == 74_655


def test_offgrid_payload_is_pinned():
    # Seeded points off every grid at the default tolerances: one alpha in
    # each quarter of [0.1, 12] on a log scale, a in [-3, 3], theta in
    # [-1.4, 1.4] and gamma in [0, 3].  The default pins cover grid points only.
    rng = random.Random(34)
    config = RunConfig(
        alpha_grid=tuple(0.1 * 120.0 ** ((j + rng.random()) / 4.0) for j in range(4)),
        a_grid=tuple(rng.uniform(-3.0, 3.0) for _ in range(4)),
        theta_grid=tuple(rng.uniform(-1.4, 1.4) for _ in range(2)),
        gamma_grid=tuple(rng.uniform(0.0, 3.0) for _ in range(2)), jobs=2)
    report = run_verification(config)
    assert report.summary == {"pass": 130, "fail": 0, "error": 0, "skipped": 10,
                              "total": 140}
    payload = render_rows_json(report.rows).encode()
    assert hashlib.sha256(payload).hexdigest() == (
        "d4a4d78472b855780c69318c74a96f18e52498d607158bcccfa264853963c457")
    assert sum(row.evaluations for row in report.rows) == 31_350


def test_unreachable_tolerance_stays_cheap():
    # At rtol 1e-16 no row can pass or fail, and the engine's floors on the
    # tolerance it asks of itself keep it from chasing the request: the
    # sweep costs 1.10 times the sweep at rtol 1e-12, where no row fails
    # either.  Without ``_ABS_FLOOR`` it costs 10.2 times; without
    # ``_REL_FLOOR`` five rows fail
    def rows_at(rtol, atol):
        return run_verification(RunConfig(rtol=rtol, atol=atol, jobs=1)).rows

    reachable, unreachable = rows_at(1e-12, 1e-14), rows_at(1e-16, 1e-30)
    assert {row.status for row in reachable} <= {"pass", "error", "skipped"}
    assert {row.status for row in unreachable} <= {"error", "skipped"}
    assert (sum(row.evaluations for row in unreachable)
            <= 1.25 * sum(row.evaluations for row in reachable))


# Off-grid points where the Kronrod estimate fell short of the error while
# the tail started one period in: the interior panel then ran to within
# e^{-period}/2 of the log singularity, and its deepest panels carried the
# miss (T2 at alpha = 2.084: error 6.0e-10, estimate 4.6e-11).  DISC-P3
# near alpha = 17 missed when the sinh map beside a pole centre reached over
# a whole quarter period (27 in t).  S3-T7 at alpha = 1.898 (period 7.95)
# missed with the quarter lattice cut in the first tail chunk only: error
# 6.5e-10 against 5.2e-11.
LONG_PERIOD_MISSES = (
    [("T2", alpha) for alpha in (
        2.08417825196839, 7.4180911377434855, 7.702428814429628,
        2.306748588833486, 7.271450960812475, 6.981460347791198,
        2.281814673909548, 7.02248809166186, 7.230625551514429)]
    + [(case_id, alpha) for case_id in ("T4-B", "T4-PB")
       for alpha in (8.130361869925238, 8.137704193643266, 8.570193990821146)]
    + [("DISC-P3", alpha) for alpha in (
        16.884105280627605, 17.014630931001548, 17.146165633683708)]
    + [("S3-T7", 1.8981906529125743)])


@pytest.mark.parametrize("case_id, alpha", LONG_PERIOD_MISSES)
def test_long_period_estimate_bounds_the_error_off_grid(case_id, alpha):
    row = verify_case(case_by_id(case_id), {"alpha": alpha})
    assert row.abs_err <= row_estimate(row) + 5e-13


# Off-grid rows that the quarter-period lattice of pinch cuts keeps honest,
# each at its rtol with atol rtol / 100: error/estimate is at most 0.01.
# With the lattice dropped (``_LATTICE_PERIOD`` = inf) all six miss their
# estimates, the first by 9.7 times (error 1.36e-8 against 1.41e-9); with
# each long-period chunk cut at its midpoint alone the first, the fourth
# and the fifth miss.
LATTICE_ROWS = (
    ("S3-T6", 16.40213174844623, 1e-6), ("S3-T7", 4.6314482170110765, 1e-10),
    ("S3-T6", 7.165439237537455, 1e-8), ("S3-T5B", 22.919020004127578, 1e-6),
    ("S3-T6", 8.22881720206958, 1e-10), ("S3-T5B", 9.593006210316489, 1e-8))


@pytest.mark.parametrize("case_id, alpha, rtol", LATTICE_ROWS)
def test_pinch_lattice_keeps_long_period_estimates_honest(case_id, alpha, rtol):
    row = verify_case(case_by_id(case_id), {"alpha": alpha}, rtol, rtol / 100)
    assert row.status == "pass"
    assert row.abs_err <= row_estimate(row, rtol, rtol / 100) + 5e-13


@pytest.mark.parametrize("alpha", (4.17, 4.36, 4.77, 5.78, 6.37))
def test_disc_p4_pinch_points_above_the_split(alpha):
    # the first cos = -1 pinch point, at t = pi alpha = 13-20, lies in the
    # tail, which subtracts its pole; a pinch point left to a plain panel
    # would leave a wrong value behind a tiny estimate
    row = verify_case(case_by_id("DISC-P4"), {"alpha": alpha})
    assert row.status == "pass"
    assert row.abs_err <= row_estimate(row) + 5e-13


def test_offgrid_disc_p34_over_the_whole_domain():
    # the pinch points reach from the interior panel (small alpha) to the
    # far tail (large alpha); below alpha = 0.0044 the kernels need their
    # scaled form to evaluate at all
    rng = random.Random(20261019)
    for case_id in ("DISC-P3", "DISC-P4"):
        case = case_by_id(case_id)
        for _ in range(16):
            params = {"alpha": math.exp(rng.uniform(math.log(0.002),
                                                    math.log(40.0)))}
            rhs = evaluate_rhs(case, params)
            # verify_case's request and pass test at its default tolerances
            tolerance = max(1e-10, 1e-8 * abs(rhs))
            lhs, cost = evaluate_lhs(case, params, tolerance)
            err = abs(lhs - rhs)
            assert err <= tolerance, (case_id, params)
            assert err <= cost.error_estimate + 5e-13, (case_id, params)


def test_tight_tolerance_disc_p34_tails_settle():
    # at rtol 1e-10 the sinh-graded pinch segments that resolved these poles
    # before they were subtracted ran into the 4096-panel limit where the
    # DISC-P3 integral is below 1.2e-14 in magnitude (alpha about 5.4-7.1):
    # 5 of these 80 DISC-P3 draws did
    rng = random.Random(20261019)
    for case_id in ("DISC-P3", "DISC-P4"):
        case = case_by_id(case_id)
        for _ in range(80):
            params = {"alpha": math.exp(rng.uniform(0.0, math.log(40.0)))}
            rhs = evaluate_rhs(case, params)
            lhs, cost = evaluate_lhs(case, params, max(1e-12, 1e-10 * abs(rhs)))
            err = abs(lhs - rhs)
            assert err <= cost.error_estimate + 5e-13, (case_id, params)


@pytest.mark.parametrize("alpha", (0.00423399930318753, 0.0045647614174848875))
def test_disc_p3_small_alpha_estimate_within_tolerance(alpha):
    # the worst rows of a seeded small-alpha scan.  At a period of 0.027 in
    # t, one-period chunks closed by a Richardson table multiplied each
    # chunk's estimate by about 10^4, and the estimates read 66 and 25 times
    # the row tolerance while the poles were resolved by sinh-graded segments
    row = verify_case(case_by_id("DISC-P3"), {"alpha": alpha})
    assert row_estimate(row) <= max(1e-10, 1e-8 * abs(row.rhs))


def p34_tail(case_id, alpha, t_m):
    """z -> (N m, sinh^2(x / 2 alpha), sin^2(z / 2 alpha)) of the DISC-P3/P4
    tail integrand g = N m / E at t = t_m + z next to the lower end, in
    complex arithmetic: x = asin(u), u = e^{-t}/2, m = u / sqrt(1 - u^2).
    With t_m / alpha an odd multiple of pi, E = cosh(x/alpha) + cos(t/alpha)
    is 2 (sinh^2(x / 2 alpha) + sin^2(z / 2 alpha)), and sin(w/alpha) =
    sin(-t/alpha) is sin(z/alpha)."""
    def parts(z):
        u = 0.5 * math.exp(-t_m) * cmath.exp(-z)
        x = cmath.asin(u)
        num = cmath.sin(z / alpha) if case_id == "DISC-P3" else cmath.sinh(x / alpha)
        return (num * u / cmath.sqrt(1.0 - u * u), cmath.sinh(0.5 * x / alpha) ** 2,
                cmath.sin(0.5 * z / alpha) ** 2)
    return parts


@pytest.mark.parametrize("case_id", ("DISC-P3", "DISC-P4"))
@pytest.mark.parametrize("alpha", (0.01, 0.3, 2.0, 20.0))
def test_disc_p34_poles_and_residues(case_id, alpha):
    # each declared pole (t_m, rho), mapped onto the tail as t_m + d with
    # residue R, zeroes cosh + cos, and R matches a 32-point trapezoid rule
    # on a circle about it, a quarter as wide as the distance to the nearest
    # other pole: the conjugate one, 2 Im d away, or the next on the
    # lattice, 2 pi alpha away
    case = case_by_id(case_id)
    (quarters, rho), = case.features({"alpha": alpha})
    # the engine's lattice, at the period evaluate_lhs passes it, holds the
    # half periods (2m+1) pi alpha to the bit
    quarter = 2.0 * PI * alpha / case.freq / 4.0
    declared = [quadrature._pole(c, rho)
                for c in quadrature._lattice(1.0, 70.0, quarter, quarters)]
    half = PI * alpha
    lattice = ((2 * m + 1) * half for m in range(int(70.0 / half)))
    assert [t_m for t_m, _, _ in declared] == [t for t in lattice if 1.0 <= t <= 70.0]
    for t_m, d, res in declared:
        parts = p34_tail(case_id, alpha, t_m)
        _, sinh2, sin2 = parts(d)
        assert abs(sinh2 + sin2) <= 1e-13 * abs(sinh2), (t_m, d)
        radius = 0.25 * min(2.0 * d.imag, 2.0 * PI * alpha)
        total = 0j
        for k in range(32):
            step = radius * cmath.exp(2j * PI * k / 32)
            num, sinh2, sin2 = parts(d + step)
            total += num / (2.0 * (sinh2 + sin2)) * step
        assert abs(total / 32 - res) <= 1e-10 * abs(res), (t_m, total / 32, res)


@pytest.mark.xfail(strict=True,
                   reason="the freq-0 tail closes before it reaches the pole")
@pytest.mark.parametrize("a", (16.0, 20.0))
def test_disc_p1_isolated_pole_is_resolved(a):
    # the pole at w = -a pinches the path at t = a with width e^{-a}/2; the
    # tail closes geometrically before t = a and misses its mass pi e^{-a}/2
    row = verify_case(case_by_id("DISC-P1"), {"a": a})
    assert row.status == "pass"
    assert row.abs_err <= row_estimate(row) + 5e-13


# The first two jump thresholds of DISC-IM, DISC-L1 and DISC-L2, which add
# the residues of the poles their path encloses: the alpha at which one
# more pole of the kernel enters the path.
BRANCH_THRESHOLDS = {"DISC-IM": (1.0 / 6.0, 1.0 / 12.0),
                     "DISC-L1": (LN2 / (2.0 * PI), LN2 / (4.0 * PI)),
                     "DISC-L2": (LN2 / PI, LN2 / (3.0 * PI))}


@pytest.mark.parametrize("case_id", BRANCH_THRESHOLDS)
@pytest.mark.parametrize("scale", (0.98, 1.02))
@pytest.mark.parametrize("threshold", (0, 1))
def test_closed_form_holds_beside_each_branch_threshold(case_id, scale,
                                                        threshold):
    # below each threshold the closed form gains one residue term; with
    # the first branch alone the rows below a threshold failed
    params = {"alpha": scale * BRANCH_THRESHOLDS[case_id][threshold]}
    for rtol, atol in ((1e-8, 1e-10), (1e-10, 1e-12)):
        row = verify_case(case_by_id(case_id), params, rtol=rtol, atol=atol)
        assert row.status == "pass", (row, rtol)
        assert row.abs_err <= row_estimate(row, rtol, atol) + 5e-13, (row, rtol)


def test_disc_l2_closed_form_without_cancelling_branch_terms():
    # at alpha = 0.001238458 the path encloses 89 poles.  Their residue
    # terms and Lambert terms were summed apart, each to about 3.4 before
    # they cancelled to 6e-4, and the rhs carried 3.5e-14 of rounding: the
    # error was 1.31 times the estimate.  Each pair is -1 exactly
    row = verify_case(case_by_id("DISC-L2"), {"alpha": 0.001238458})
    assert row.status == "pass"
    assert row.abs_err <= row_estimate(row)


def test_offgrid_alpha_sweep():
    rng = random.Random(20261017)
    alphas = tuple(0.1 * math.exp(math.log(120.0) * rng.random())
                   for _ in range(30))
    ids = tuple(c.id for c in catalog() if c.param_kind == "alpha")
    report = run_verification(RunConfig(case_filter=ids, alpha_grid=alphas,
                                        jobs=2))
    assert report.summary["error"] == 0
    assert report.summary["fail"] == 0
    assert report.summary["pass"] > 500


def test_estimates_stay_within_the_request(monkeypatch):
    # verify_case asks for its row tolerance as one absolute budget, and the
    # interior, every tail chunk and every close are charged to it.  Held
    # to their own values instead, the tails of DISC-P3 (alpha = 0.5 to 3)
    # and DISC-L2 (alpha = 2) reported up to 3.6 times the request, where
    # they cancel most of the interior.
    catalog_module = importlib.import_module("logtrig.catalog")
    integrate = catalog_module.integrate_endpoint_oscillatory
    evaluate = catalog_module.evaluate_lhs
    where, over = [], []

    def named(case, params, tolerance):
        where.append((case.id, params))
        return evaluate(case, params, tolerance)

    def spy(*args, tolerance, **kwargs):
        res = integrate(*args, tolerance=tolerance, **kwargs)
        # what the quadrature asks of itself: its share of the budget
        request = quadrature._QUADRATURE_SHARE * tolerance
        if res.error_estimate > request:
            over.append((*where[-1], res.error_estimate / request))
        return res

    monkeypatch.setattr(catalog_module, "evaluate_lhs", named)
    monkeypatch.setattr(catalog_module, "integrate_endpoint_oscillatory", spy)
    # the 30 seeded alphas of test_offgrid_alpha_sweep
    rng = random.Random(20261017)
    alphas = tuple(0.1 * math.exp(math.log(120.0) * rng.random())
                   for _ in range(30))
    ids = tuple(c.id for c in catalog() if c.param_kind == "alpha")
    run_verification(RunConfig(jobs=1))
    run_verification(RunConfig(case_filter=ids, alpha_grid=alphas, jobs=1))
    assert len(where) > 600
    assert over == []


@pytest.mark.parametrize("alpha", (0.001, 0.004078))
def test_disc_p4_small_alpha_estimate_bounds_the_error(alpha):
    # at a period of 2 pi alpha = 0.006-0.026 in t, one-period tail chunks
    # put r = e^{-period} near 1, and the level 3 of a Richardson table
    # closed near t = 6, where the tail had not settled: at alpha = 0.001
    # the error was 2.1e-12 against an estimate of 2.8e-15
    rtol, atol = 1e-10, 1e-12
    row = verify_case(case_by_id("DISC-P4"), {"alpha": alpha}, rtol=rtol, atol=atol)
    assert row.status == "pass"
    assert row.abs_err <= row_estimate(row, rtol, atol) + 5e-13


def test_s3_t6_small_alpha_tails_are_honest():
    # one-period chunks at periods of 0.002-0.01 ran hundreds of chunks
    # per tail: 928,275 evaluations over these 30 alphas, and 3 rows with
    # an error above the estimate (worst 3.7 times)
    rng = random.Random(1)
    case = case_by_id("S3-T6")
    evaluations = 0
    for _ in range(30):
        params = {"alpha": math.exp(rng.uniform(math.log(0.001),
                                                math.log(0.0045)))}
        row = verify_case(case, params)
        assert row.status == "pass", params
        assert row.abs_err <= row_estimate(row), params
        evaluations += row.evaluations
    assert evaluations < 100_000


def test_extreme_alpha_sweep():
    # alpha where k or k' rounds to 1: no error row, no fail, and every
    # pass within its estimate
    rng = random.Random(20261021)
    alphas = (20.0, 40.0, 80.0) + tuple(
        math.exp(rng.uniform(math.log(lo), math.log(hi)))
        for lo, hi in ((12.0, 80.0), (0.02, 0.09)) for _ in range(4))
    ids = tuple(c.id for c in catalog() if c.param_kind == "alpha")
    report = run_verification(RunConfig(case_filter=ids, alpha_grid=alphas,
                                        jobs=1))
    assert report.summary["error"] == 0
    assert report.summary["fail"] == 0
    assert report.summary["pass"] > 140
    for row in report.rows:
        if row.status == "pass":
            assert row.abs_err <= row_estimate(row) + 5e-13, (
                row.case_id, row.params)


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
            assert row.status == "pass", (case.id, params)
            assert row.abs_err <= row_estimate(row) + 5e-13, (case.id, params)
            checked += 1
    assert checked > 100


# Periodic tails whose close once missed, each with the (rtol, atol) it
# missed at.  The first four were closed by a Richardson table: S3-T5A
# passed with an error 1.1 times its estimate when level 3 closed at its
# first difference, which two terms of opposite sign had shrunk; without
# a floor on that difference and with a safety factor of 2 instead of 4,
# DISC-P4 came to 7.8 times its estimate, and with the factor 2 alone
# T4-A/T4-PA came to 0.92 of it.  DISC-P4 at alpha = 0.0011 had an error 43
# times its estimate (3.66e-7 against 8.57e-9) under that table, and 2.2e-9
# against 2.35e-8 under the geometric remainder that now closes every tail.
# The last two closed on a difference that two terms of opposite sign had
# cancelled, before that remainder's bound kept r^2 times the difference
# before it: DISC-P4 failed with an error of 6.6e-6 against 3.2e-8, and
# DISC-P3 missed with 2.3e-9 against 4.9e-11.
PERIODIC_CLOSES = {("S3-T5A", 0.37540666994115257): (1e-8, 1e-10),
                   ("DISC-P4", 0.018547460115476925): (1e-8, 1e-10),
                   ("T4-A", 0.7963876235924962): (1e-8, 1e-10),
                   ("T4-PA", 0.7963876235924962): (1e-8, 1e-10),
                   ("DISC-P4", 0.0011012358379571803): (1e-6, 1e-8),
                   ("DISC-P4", 0.0033293746261211393): (1e-6, 1e-8),
                   ("DISC-P3", 0.0021426643609031362): (1e-6, 1e-8)}


@pytest.mark.parametrize("case_id, alpha", PERIODIC_CLOSES)
def test_richardson_close_bounds_the_error(case_id, alpha):
    rtol, atol = PERIODIC_CLOSES[case_id, alpha]
    row = verify_case(case_by_id(case_id), {"alpha": alpha}, rtol=rtol, atol=atol)
    assert row.status == "pass"
    assert row.abs_err <= row_estimate(row, rtol, atol) + 5e-13


@pytest.mark.parametrize("case_id", ("T4-A", "T4-PA"))
def test_t4_estimate_bounds_the_error_at_tight_tolerance(case_id):
    # one shared integral: error 1.92e-12 against an estimate of 5.72e-13 on
    # a passing row (tolerance 9.9e-11) while a Richardson table closed the
    # tail at level 1 on its first difference, two chunks from t = 2, before
    # the chunk sums had reached their power law
    rtol, atol = 1e-10, 1e-12
    row = verify_case(case_by_id(case_id), {"alpha": 0.793444893429258},
                      rtol=rtol, atol=atol)
    assert row.status == "pass"
    assert row.abs_err <= row_estimate(row, rtol, atol) + 5e-13


def test_offgrid_short_period_tails_are_honest():
    # periods 2 pi alpha / freq down to 0.04: many periods per chunk, each
    # chunk step at least 0.5 long in t
    rng = random.Random(20261020)
    alphas = [math.exp(rng.uniform(math.log(0.02), math.log(0.3)))
              for _ in range(6)]
    checked = 0
    for case in catalog():
        if case.param_kind != "alpha":
            continue
        for alpha in alphas:
            params = {"alpha": alpha}
            if not case.domain(params):
                continue
            row = verify_case(case, params)
            if row.status != "pass":
                continue
            assert row.abs_err <= row_estimate(row) + 5e-13, (case.id, alpha)
            checked += 1
    assert checked > 20


def test_tails_next_to_the_lattice_period_are_honest():
    # the quarter lattice is cut from a period of 2.5 on; both sides of that
    # edge, for every periodic case, at the default and a tight tolerance
    checked = 0
    for rtol, atol in ((1e-8, 1e-10), (1e-10, 1e-12)):
        for case in catalog():
            if case.param_kind != "alpha" or not case.freq:
                continue
            for scale in (0.97, 0.985, 1.0, 1.015, 1.03):
                params = {"alpha": 2.5 * scale * case.freq / (2.0 * PI)}
                if not case.domain(params):
                    continue
                rhs = evaluate_rhs(case, params)
                tolerance = max(atol, rtol * abs(rhs))
                lhs, cost = evaluate_lhs(case, params, tolerance)
                where = (case.id, params, rtol)
                assert abs(lhs - rhs) <= cost.error_estimate + 5e-13, where
                assert cost.error_estimate <= tolerance, where
                checked += 1
    assert checked == 170


def test_graded_interior_is_honest_at_tight_tolerance():
    # the interior panel is cut at x(1), x(0) and x(-0.5) toward each tail
    # split; at long periods it carries most of a row's value, so its
    # estimate must still bound the error where the tolerance is tight
    rng = random.Random(20261022)
    alphas = [math.exp(rng.uniform(math.log(0.3), math.log(40.0)))
              for _ in range(8)]
    rtol, atol = 1e-10, 1e-12
    checked = 0
    for case in catalog():
        if case.param_kind != "alpha":
            continue
        for alpha in alphas:
            params = {"alpha": alpha}
            if not case.domain(params):
                continue
            rhs = evaluate_rhs(case, params)
            tolerance = max(atol, rtol * abs(rhs))
            lhs, cost = evaluate_lhs(case, params, tolerance)
            where = (case.id, alpha)
            assert abs(lhs - rhs) <= tolerance, where
            assert abs(lhs - rhs) <= cost.error_estimate + 5e-13, where
            assert cost.error_estimate <= tolerance, where
            checked += 1
    assert checked > 150


def test_s3_t6_closed_form_at_large_alpha():
    # the left side agrees with an mpmath oracle to 2e-16 here, where
    # k' = 1 - 8.9e-13; a Landen descent from k' was off by 1.9e-12
    case = case_by_id("S3-T6")
    params = {"alpha": 9.492969004585527}
    lhs, _ = evaluate_lhs(case, params, 1e-14)
    assert abs(evaluate_rhs(case, params) - lhs) <= 1e-13


@pytest.mark.parametrize("scale, shift, status", [
    (0.9, 0.0, "pass"), (1.1, 0.0, "error"), (1.1, 10.0, "fail")])
def test_estimate_above_the_tolerance_is_no_pass(monkeypatch, scale, shift,
                                                 status):
    # A pass needs the quadrature estimate within the row tolerance as well
    # as the error.  A row whose error is within it and whose estimate is
    # not is an error row, not a fail, both for the row that integrated the
    # lhs and for the row that reuses it with its own tolerance.
    catalog_module = importlib.import_module("logtrig.catalog")
    integrate = catalog_module.evaluate_lhs
    tolerance = 1e-8 * abs(evaluate_rhs(case_by_id("T1-A"), {"alpha": 2.0}))

    def patched(case, params, tolerance):
        lhs, cost = integrate(case, params, tolerance)
        lhs += shift * tolerance
        return lhs, QuadratureResult(lhs, scale * tolerance, cost.evaluations,
                                     cost.subdivisions)

    monkeypatch.setattr(catalog_module, "evaluate_lhs", patched)
    owner, sharer = run_verification(RunConfig(case_filter=("T1-A", "T1-PA"),
                                               alpha_grid=(2.0,))).rows
    assert (owner.status, sharer.status) == (status, status)
    assert owner.evaluations > 0 and sharer.evaluations == 0
    if status == "error":
        reason = f"error estimate {scale * tolerance:.3e} above the tolerance "
        assert owner.detail.startswith(reason), owner.detail
        assert sharer.detail.startswith("lhs of T1-A: " + reason), sharer.detail


ALPHA_ONLY_CLOSED_FORMS = ("T1-PA", "T1-PB", "T4-PA", "T4-PB", "S3-T6",
                           "S3-T7", "DISC-L1", "DISC-L2")


def test_alpha_only_closed_forms_need_no_solve(monkeypatch):
    # their q-products and Lambert, csch^2 and cosh sums are summed from
    # alpha alone, so they hold where the nome underflows
    def refuse(alpha):
        raise AssertionError(f"modulus solved for alpha={alpha}")

    monkeypatch.setattr(importlib.import_module("logtrig.catalog"),
                        "modulus_from_alpha", refuse)
    with pytest.raises(AssertionError):
        evaluate_rhs(case_by_id("T2"), {"alpha": 2.0})
    for case_id in ALPHA_ONLY_CLOSED_FORMS:
        case = case_by_id(case_id)
        for alpha in ALPHA_GRID:
            if case.domain({"alpha": alpha}):
                assert math.isfinite(evaluate_rhs(case, {"alpha": alpha}))
        for alpha in (120.0, 300.0, 1000.0):
            row = verify_case(case, {"alpha": alpha})
            assert row.status == "pass", row


def test_s3_t6_sum_past_its_term_limit_is_an_error_row():
    # cosh_third_sum needs more than 20,000 terms below alpha = 0.0009; its
    # partial sum would make a false fail
    row = verify_case(case_by_id("S3-T6"), {"alpha": 0.0002})
    assert (row.status, row.evaluations) == ("error", 0)
    assert row.detail == "cosh_third_sum did not converge in 20000 terms"


@pytest.mark.parametrize("case_id", ("DISC-L1", "DISC-L2"))
def test_lambert_sum_past_its_term_limit_is_an_error_row(case_id):
    # at alpha = 3e-6 the path encloses more than 20,000 poles, the first
    # term the Lambert sum would take: an error row, not an UnboundLocalError
    row = verify_case(case_by_id(case_id), {"alpha": 3e-6})
    assert (row.status, row.evaluations) == ("error", 0)
    assert row.detail == "lambert_plain did not converge in 0 terms"


def test_sweep_row_order_is_canonical(sweep):
    order = {c.id: i for i, c in enumerate(catalog())}
    keys = [(order[r.case_id],) + tuple(r.params[k] for k in
            ("theta", "gamma", "alpha", "a") if k in r.params)
            for r in sweep.rows]
    assert keys == sorted(keys)
