"""Quadrature engines: adaptive Gauss-Kronrod, tanh-sinh, endpoint transform."""

import cmath
import math
import random

import pytest

from elliptic_oracle import tanh_sinh
from logtrig import (AccuracyError, DomainError, QuadratureResult, case_by_id,
                     catalog, evaluate_lhs, evaluate_rhs, integrate_adaptive,
                     integrate_endpoint_oscillatory)
from logtrig import quadrature
from logtrig.catalog import default_params_grid
from logtrig.quadrature import _WG, _WGK, _XGK, Pinch, _qk15, _tail, _y

# a Pinch at every quarter point: a long-period tail chunk is cut at all four
ALL_QUARTERS = (Pinch((0, 1, 2, 3)),)

PI = math.pi

# tail of cos(log(2 cos x)) over (x0, pi/2) with log(2 cos x0) = -2 pi,
# computed independently with 30-digit arithmetic; through x = pi/2 - y it
# is the tail of cos(log(2 sin y)) over (0, pi/2 - x0)
TAIL_X0 = 1.56986260529336732
TAIL_REF = 0.000466860805034775937


def graded_mesh(a, b, singular_low, singular_high, n_core, n_graded,
                d_min=1e-14):
    """Panel mesh, geometrically refined toward singular interval ends."""
    lo = a + (b - a) * 0.25 if singular_low else a
    hi = b - (b - a) * 0.25 if singular_high else b
    xs = [lo + (hi - lo) * i / n_core for i in range(n_core + 1)]
    for flag, end, inner in ((singular_low, a, lo), (singular_high, b, hi)):
        if not flag:
            continue
        span = abs(inner - end)
        ratio = (d_min / span) ** (1.0 / n_graded)
        d = span
        for _ in range(n_graded):
            d *= ratio
            xs.append(end + d if end == a else end - d)
    return sorted(set(xs))


def simpson_sum(f, mesh):
    total = 0.0
    fa = f(mesh[0])
    for i in range(len(mesh) - 1):
        a, b = mesh[i], mesh[i + 1]
        fb = f(b)
        total += (b - a) / 6.0 * (fa + 4.0 * f(0.5 * (a + b)) + fb)
        fa = fb
    return total


def test_adaptive_elementary():
    res = integrate_adaptive(math.sin, 0.0, PI / 2, tol=1e-12)
    assert abs(res.value - 1.0) < 1e-13
    assert res.evaluations >= 15
    res = integrate_adaptive(lambda x: x ** 3 - x, -1.0, 2.0, tol=1e-12)
    assert abs(res.value - 2.25) < 1e-12


def test_adaptive_points_split_near_pole():
    # narrow Lorentzian; the split point anchors the refinement
    res = integrate_adaptive(lambda x: 1e-4 / ((x - 0.3) ** 2 + 1e-8),
                             0.0, 1.0, tol=1e-10, points=(0.3,))
    expect = math.atan(0.7 / 1e-4) + math.atan(0.3 / 1e-4)
    assert abs(res.value - expect) < 1e-8 * expect


def test_integrate_adaptive_first_pass_exit():
    # panels that meet the tolerance at once are summed as they are: no
    # bisection, one Kronrod rule each, and their exactly rounded sum
    edges = (0.0, 0.25, 0.5, 0.75, 1.0)
    res = integrate_adaptive(math.exp, 0.0, 1.0, tol=1e-12, points=edges[1:-1])
    panels = [_qk15(math.exp, lo, hi) for lo, hi in zip(edges, edges[1:])]
    assert res.subdivisions == 0
    assert res.evaluations == 15 * len(panels)
    assert res.value == math.fsum(v for v, _ in panels)
    assert res.error_estimate == math.fsum(e for _, e in panels)


def test_adaptive_reports_failure():
    with pytest.raises(AccuracyError) as info:
        integrate_adaptive(lambda x: math.sin(1.0 / x), 1e-12, 1.0,
                           tol=1e-14, atol=1e-16, limit=64)
    assert info.value.best == pytest.approx(0.504, abs=0.2)
    assert info.value.error_estimate > 0.0


def test_adaptive_accepts_panels_narrower_than_float_spacing():
    # an integrand that changes at every float: bisection reaches panels
    # one ulp wide, which it cannot split, so it keeps them as they are and
    # then reports the tolerance as not reached
    with pytest.raises(AccuracyError, match="tolerance not reached") as info:
        integrate_adaptive(lambda x: math.sin(1e20 * x), 1.0,
                           1.0 + 8.0 * math.ulp(1.0), tol=1e-300, atol=1e-300)
    assert info.value.evaluations == 15 + 7 * 30     # 8 one-ulp panels
    assert info.value.error_estimate > 0.0


def test_tail_unsettled_at_t_max_raises():
    # (2 cos x)^(-0.7) makes the tail integrand decay like e^(-0.3 t)/2, too
    # slowly for the geometric close, so the tail runs to t = 60 and the
    # value it has then misses the integral by exactly the rest of the tail
    exact = 2.0 ** -0.7 * math.sqrt(PI) / 2.0 * math.gamma(0.15) / math.gamma(0.65)
    with pytest.raises(AccuracyError,
                       match="oscillatory tail did not settle") as info:
        integrate_endpoint_oscillatory(lambda y, w: math.exp(-0.7 * w),
                                       tolerance=1e-10)
    assert abs(exact - info.value.best - math.exp(-0.3 * 60.0) / 0.6) < 1e-12


def test_adaptive_rejects_bad_interval():
    with pytest.raises(DomainError):
        integrate_adaptive(math.sin, 1.0, 1.0)


def test_tanh_sinh_endpoint_singularities():
    res = tanh_sinh(lambda x: 1.0 / math.sqrt(x), 0.0, 1.0)
    assert abs(res.value - 2.0) < 1e-12
    res = tanh_sinh(math.log, 0.0, 1.0)
    assert abs(res.value - (-1.0)) < 1e-12
    res = tanh_sinh(math.sin, 0.0, PI)
    assert abs(res.value - 2.0) < 1e-13


def test_quadrature_result_validation():
    with pytest.raises(ValueError):
        QuadratureResult(1.0, -1.0, 10, 0)
    with pytest.raises(ValueError):
        QuadratureResult(1.0, 0.0, 0, 0)


def test_log_squared_kernel_integrates_to_zero():
    # the log of x^2 + log^2(2 cos x) over (0, pi/2) vanishes exactly; x =
    # pi/2 - y carries it onto the engine's log(2 sin y)
    res = integrate_endpoint_oscillatory(
        lambda y, w: math.log((PI / 2 - y) ** 2 + w * w), tolerance=1e-12)
    assert abs(res.value) < 1e-11
    assert res.error_estimate < 1e-9


def interior_ref(g, t_edge):
    """g(y, log(2 sin y)) over (y(t_edge), pi/2], far more tightly than the
    engine is asked for: the part of the whole integral beside a tail
    reference from t_edge on."""
    return integrate_adaptive(lambda y: g(y, math.log(2.0 * math.sin(y))),
                              _y(t_edge), PI / 2, tol=1e-14, atol=1e-16)


def test_pure_tail_against_reference_and_brute_force():
    # the whole (0, pi/2] integral against the 30-digit tail from t = 2 pi
    # plus the interior beside it, and against graded panels over that tail
    def g(y, w):
        return math.cos(w)

    res = integrate_endpoint_oscillatory(g, 2.0 * PI, tolerance=1e-12,
                                         features=ALL_QUARTERS)
    interior = interior_ref(g, 2.0 * PI).value
    assert abs(res.value - (interior + TAIL_REF)) < 1e-12

    mesh = graded_mesh(0.0, PI / 2 - TAIL_X0, True, False, 10, 1_000_000)
    brute = simpson_sum(lambda y: math.cos(math.log(2.0 * math.sin(y))), mesh)
    assert abs(res.value - (interior + brute)) < 1e-9


def cos_log_tail_ref(u_edge, beta=1.0):
    # int cos(beta w) dx from the edge to the singular end, where u = e^{-t} =
    # 2 trig(x) runs from u_edge to 0 and dx = du / (2 sqrt(1 - u^2/4)):
    # the binomial series of the measure, integrated term by term in t
    total, coeff, k = 0.0, 0.5, 0
    while coeff * u_edge ** (2 * k + 1) > 1e-30:
        s = complex(2 * k + 1, beta)
        total += coeff * (u_edge ** s / s).real
        k += 1
        coeff *= (2 * k - 1) / (8.0 * k)
    return total


@pytest.mark.parametrize("beta", (4.0, 16.0, 40.0))
def test_short_period_tail_against_term_by_term_sum(beta):
    # the tail from t = 2, at periods 2 pi / beta = 1.57, 0.39 and 0.157:
    # whole-period chunk sums carry the ratios r, r^2, r^3, ..., which the
    # geometric remainder's bound covers.  The whole integral is checked
    # against the term-by-term tail plus the interior beside it
    def g(y, w):
        return math.cos(beta * w)

    interior = interior_ref(g, 2.0)
    ref = interior.value + cos_log_tail_ref(math.exp(-2.0), beta)
    for rtol, atol in ((1e-9, 1e-11), (1e-11, 1e-13)):
        tolerance = max(atol, rtol * abs(ref))
        res = integrate_endpoint_oscillatory(g, 2.0 * PI / beta,
                                             tolerance=tolerance,
                                             features=ALL_QUARTERS)
        assert abs(res.value - ref) <= res.error_estimate + interior.error_estimate
        assert res.error_estimate <= tolerance


def test_transform_preserves_value_against_graded_panels():
    # three integrands with one or two log-singular oscillatory ends, each
    # brought onto the engine's (0, pi/2] in y: the log-cos ones through x =
    # pi/2 - y, the two-ended log-sin one folded, f(y, w) + f(pi - y, w);
    # against graded panels over all of each path in x
    def t1a(x, w):
        return math.log(2.0 * (math.sinh(0.5 * x) ** 2 + math.sin(0.5 * w) ** 2))

    def t3a(x, w):
        return (math.sin(2.0 * x) * math.sinh(x)
                / (2.0 * (math.sinh(0.5 * x) ** 2 + math.sin(0.5 * w) ** 2)))

    def t6(x, w):
        return (math.sinh((PI - 6.0 * x) / 2.0)
                / (2.0 * (math.sinh((PI - 6.0 * x) / 4.0) ** 2
                          + math.cos(1.5 * w) ** 2)))

    def t6_folded(x, w):
        return t6(x, w) + t6(PI - x, w)

    def on_y(f):
        return lambda y, w: f(PI / 2 - y, w)

    # (f, the engine's integrand in y, f's upper end, map kind, freq,
    # whether f's path diverges at both ends); a = 0
    cases = [
        (t1a, on_y(t1a), PI / 2, "log-cos", 1.0, False),
        (t3a, on_y(t3a), PI / 2, "log-cos", 1.0, False),
        (t6, t6_folded, PI, "log-sin", 3.0, True),
    ]
    a = 0.0
    for f, engine_f, b, kind, freq, both in cases:
        res = integrate_endpoint_oscillatory(engine_f, 2.0 * PI / freq,
                                             tolerance=1e-11,
                                             features=ALL_QUARTERS)

        def w_of(x):
            return math.log(2.0 * (math.sin(x) if kind == "log-sin"
                                   else math.cos(x)))
        mesh = graded_mesh(a, b, both, True, 100_000, 120_000)
        brute = simpson_sum(lambda x: f(x, w_of(x)), mesh)
        assert abs(res.value - brute) < 1e-9


def test_short_period_tail_remainder_against_gamma_ratio():
    # int_0^{pi/2} (2 sin y)^{i beta} dy = (pi/2) G(1 + i beta) / G(1 + i beta/2)^2;
    # beta = 16 makes the tail period 2 pi / beta = 0.39
    mpmath = pytest.importorskip("mpmath")
    beta = 16.0
    ref = complex(mpmath.pi / 2 * mpmath.gamma(1 + 1j * beta)
                  / mpmath.gamma(1 + 0.5j * beta) ** 2)
    for rtol, atol in ((1e-9, 1e-11), (1e-11, 1e-13)):
        tolerance = max(atol, rtol * abs(ref))
        res = integrate_endpoint_oscillatory(
            lambda y, w: cmath.exp(1j * beta * w), 2.0 * PI / beta,
            tolerance=tolerance, features=ALL_QUARTERS)
        assert abs(res.value - ref) <= res.error_estimate
        assert res.error_estimate <= tolerance


# int_0^{pi/2} log^n(2 sin y) dy, from the Taylor coefficients of
# (pi/2) G(1 + s) / G(1 + s/2)^2
LOG_POWER_REFS = ((2, PI ** 3 / 24.0), (3, -0.75 * PI * 1.2020569031595942854))


@pytest.mark.parametrize("n, ref", LOG_POWER_REFS)
def test_decay_only_tail_remainder_against_log_moments(n, ref):
    # no period: the tail factor t^n is far from the constant the geometric
    # remainder assumes
    for rtol, atol in ((1e-9, 1e-11), (1e-11, 1e-13)):
        tolerance = max(atol, rtol * abs(ref))
        res = integrate_endpoint_oscillatory(lambda y, w: w ** n,
                                             tolerance=tolerance)
        assert abs(res.value - ref) <= res.error_estimate
        assert res.error_estimate <= tolerance


def row_tolerance(case, params, rtol=1e-8, atol=1e-10):
    """The budget ``verify_case`` asks the lhs for at (rtol, atol): the row
    tolerance max(atol, rtol |rhs|)."""
    return max(atol, rtol * abs(evaluate_rhs(case, params)))


def p4_features(alpha):
    """DISC-P4's features, the half periods with the residue of its poles
    next to the path; the kernel below is its integrand."""
    return case_by_id("DISC-P4").features({"alpha": alpha})


@pytest.mark.parametrize("alpha", (2.0, 5.78, 9.4, 12.8))
def test_pinch_substitution_against_tanh_closed_form(alpha):
    # int_0^pi sinh(x/a) / (cosh(x/a) + cos(w/a)) dx = pi tanh(pi / 4a) with
    # w = log(2 sin x); near x = 0 the poles at t = (2m+1) pi a sit e^{-t}/2
    # from the path, and missing the one at t = pi a costs 4e-8 (a = 2) and
    # 2.4e-7 (a = 5.78); the engine subtracts them.  The path is folded onto
    # (0, pi/2], where next to x = pi/2 no pole comes close.  At a = 9.4 the
    # pole at t = 29.5 carries 4e-12; at a = 12.8 (t = 40.2) its offset d =
    # 1.7e-18 from its centre is below the spacing of floats there
    def f(x, w):
        return math.sinh(x / alpha) / (
            2.0 * (math.sinh(0.5 * x / alpha) ** 2 + math.cos(0.5 * w / alpha) ** 2))

    ref = PI * math.tanh(0.25 * PI / alpha)
    tolerance = max(1e-12, 1e-10 * ref)
    res = integrate_endpoint_oscillatory(
        lambda y, w: f(y, w) + f(PI - y, w), 2.0 * PI * alpha,
        tolerance=tolerance, features=p4_features(alpha))
    assert abs(res.value - ref) <= res.error_estimate
    assert res.error_estimate <= tolerance


def test_lattice_is_ascending_from_the_first_quarter():
    # the points j * quarter in [lo, hi], j >= 1, by j mod 4, in the order
    # in which a chunk subtracts its poles; the closed ends hold a pole centre
    assert quadrature._lattice(-1.0, 3.0, 0.5, (1, 3)) == [0.5, 1.5, 2.5]
    assert quadrature._lattice(0.0, 4.0, 0.5, (0,)) == [2.0, 4.0]
    assert quadrature._lattice(1.0, 3.5, 0.5, (0, 2)) == [1.0, 2.0, 3.0]


@pytest.mark.parametrize("case_id, alpha, lattice", (
    ("T1-A", 1.0, True),        # period 6.28
    ("T2", 0.5, True),          # period 6.28, an odd quarter at t = pi/2 < 2
    ("T1-A", 0.2, False),       # period 1.26
    ("DISC-P3", 0.2, False),    # the same period, with poles declared
    ("DISC-P4", 0.2, False),
    ("DISC-P4", 1.0, False)))   # period 6.28, its poles subtracted, not cut
def test_quarter_lattice_only_at_long_periods(monkeypatch, case_id, alpha, lattice):
    calls = []
    real = quadrature.integrate_adaptive

    def spy(f, a, b, *args, points=(), **kwargs):
        calls.append((tuple(points), kwargs["limit"]))
        return real(f, a, b, *args, points=points, **kwargs)

    monkeypatch.setattr(quadrature, "integrate_adaptive", spy)
    case = case_by_id(case_id)
    params = {"alpha": alpha}
    evaluate_lhs(case, params, row_tolerance(case, params))
    quarter = 2.0 * PI * alpha / case.freq / 4.0
    # tail cuts, in t >= 2, on the lattice t = j * quarter
    on_lattice = [p for points, _ in calls for p in points
                  if p >= 2.0 and abs(p / quarter - round(p / quarter)) < 1e-9]
    assert bool(on_lattice) == lattice
    # the lattice cuts only the tail chunks: the interior panel (limit 8192)
    # is cut at y(t) of each grading t and at the centres of poles below
    # t = 2, the declared half periods (2m+1) pi alpha, mapped to y =
    # asin(e^{-t}/2)
    residues = any(s.rho is not None for s in case.features(params))
    half = PI * alpha
    centres = [_y(c) for c in ((2 * m + 1) * half for m in range(8))
               if residues and c <= 2.0]
    grading = [_y(t) for t in quadrature._INTERIOR_GRADING]
    interior = [sorted(points) for points, limit in calls if limit == 8192]
    assert interior == [sorted(centres + grading)]
    if not lattice:
        # tail chunks are cut only at their whole-period edges
        assert not any(points for points, limit in calls if limit != 8192)


@pytest.mark.parametrize("case_id, alpha, evaluations", (
    ("T1-A", 11.0, 60),         # log-cos, one end: four panels, no bisection
    ("T2", 11.0, 60),
    ("DISC-P3", 11.0, None),    # log-sin, folded
    ("S3-T7", 11.0, None)))     # log-sin-half, folded
def test_interior_panel_is_graded_toward_each_split(monkeypatch, case_id, alpha,
                                                   evaluations):
    # the interior panel runs to y(2), e^{-2}/2 from the log singularity;
    # its cuts at y(1), y(0) and y(-0.5) grade it toward that end so that
    # bisection need not
    interior = []
    real = quadrature.integrate_adaptive

    def spy(f, a, b, *args, points=(), **kwargs):
        res = real(f, a, b, *args, points=points, **kwargs)
        if kwargs["limit"] == 8192:
            interior.append((points, res))
        return res

    monkeypatch.setattr(quadrature, "integrate_adaptive", spy)
    case = case_by_id(case_id)
    params = {"alpha": alpha}
    evaluate_lhs(case, params, row_tolerance(case, params))
    (points, res), = interior
    for t in (1.0, 0.0, -0.5):
        assert _y(t) in points, t
    if evaluations is not None:
        assert res.subdivisions == 0
        assert res.evaluations == evaluations


def test_interior_cuts_are_distinct(monkeypatch):
    # a case's cut within rounding of an engine cut (x = pi/3 lay one ulp
    # from the grading cut at t = 0, when cuts were fixed in x) leaves a
    # panel about 1e-16 wide, which costs 15 evaluations and resolves nothing
    interior = []
    real = quadrature.integrate_adaptive

    def spy(f, a, b, *args, points=(), **kwargs):
        if kwargs["limit"] == 8192:
            interior.append(sorted({a, b, *points}))
        return real(f, a, b, *args, points=points, **kwargs)

    monkeypatch.setattr(quadrature, "integrate_adaptive", spy)
    checked = 0
    for case in catalog():
        for params in default_params_grid(case):
            if not case.domain({**case.fixed_params, **params}):
                continue
            interior.clear()
            evaluate_lhs(case, params, row_tolerance(case, params))
            for edges in interior:
                closest = min(hi - lo for lo, hi in zip(edges, edges[1:]))
                assert closest > 1e-9, (case.id, params, closest)
                checked += 1
    assert checked > 200


@pytest.mark.parametrize("tolerance, period, refused", [
    (0.0, 2.0 * PI, "tolerance"), (-1.0, 2.0 * PI, "tolerance"),
    (math.nan, 2.0 * PI, "tolerance"), (math.inf, 2.0 * PI, "tolerance"),
    (1e-10, math.inf, "period")])
def test_endpoint_engine_refuses_a_bad_budget_or_period(tolerance, period,
                                                        refused):
    # a budget that no estimate meets (0, -1), that every comparison ignores
    # (nan) or that any estimate meets (inf) is refused before the integrand
    # runs; so is the period 2 pi alpha once it overflows (alpha = 1e308),
    # whose chunk step inf * ceil(0.5 / inf) would be nan
    def never_called(x, w):
        raise AssertionError("the integrand ran")

    with pytest.raises(DomainError, match=refused):
        integrate_endpoint_oscillatory(never_called, period, tolerance=tolerance)


def qk15_loop(f, a, b):
    """The 15-point Kronrod panel as a plain loop over the node pairs."""
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    fc = f(c)
    resk = _WGK[7] * fc
    resg = _WG[3] * fc
    for j in range(7):
        dx = h * _XGK[j]
        s = f(c - dx) + f(c + dx)
        resk += _WGK[j] * s
        if j % 2 == 1:
            resg += _WG[(j - 1) // 2] * s
    return resk * h, abs((resk - resg) * h)


def test_qk15_polynomial_degrees():
    # Kronrod 15 is exact to degree 22, its embedded Gauss 7 to degree 13
    a, b = -0.3, 1.7
    for d in range(23):
        exact = (b ** (d + 1) - a ** (d + 1)) / (d + 1)
        value, err = _qk15(lambda x: x ** d, a, b)
        assert abs(value - exact) <= 1e-14 * abs(exact), d
        if d <= 13:
            assert err <= 1e-14 * abs(exact), d
        else:
            assert err > 1e-8 * abs(exact), d


def test_qk15_matches_loop_reference_bit_for_bit():
    # a reordered sum changes the last bit on roughly one panel in five, so
    # fifty panels per integrand catch it
    integrands = (math.exp, lambda x: 1.0 / (1.0 + 25.0 * x * x),
                  lambda x: complex(math.cos(3.0 * x), x * math.sin(x)))
    rng = random.Random(15)
    for _ in range(50):
        a = rng.uniform(-3.0, 3.0)
        b = a + rng.uniform(0.01, 4.0)
        for f in integrands:
            assert _qk15(f, a, b) == qk15_loop(f, a, b)


def test_lone_panel_within_tolerance_returns_its_kronrod_sums():
    # one initial panel that meets its tolerance is the whole result: no
    # bisection, and its value and estimate are the panel's own
    integrands = (math.exp, lambda x: complex(math.cos(3.0 * x), x * math.sin(x)))
    for f in integrands:
        res = integrate_adaptive(f, 0.2, 0.9, tol=1e-8, atol=1e-12)
        assert (res.value, res.error_estimate) == _qk15(f, 0.2, 0.9)
        assert (res.evaluations, res.subdivisions) == (15, 0)
    assert isinstance(res.value, complex)


def test_tail_map_matches_reference_bit_for_bit():
    # the one map y(t) = asin(e^{-t}/2) and the tail integrand f(y(t), -t)
    # |dy/dt|, |dy/dt| = e^{-t} / (2 sqrt(1 - u^2)) with u = e^{-t}/2
    def f(y, w):
        return y + 3.0 * w

    g = _tail(f)
    for i in range(200):
        t = 2.0 + 58.0 * i / 199
        u = 0.5 * math.exp(-t)
        y = math.asin(u)
        assert _y(t) == y
        assert g(t) == f(y, -t) * (math.exp(-t) / (2.0 * math.sqrt(1.0 - u * u)))
    assert _y(math.inf) == 0.0
