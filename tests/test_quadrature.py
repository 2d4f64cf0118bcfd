"""Quadrature engines: adaptive Gauss-Kronrod, tanh-sinh, endpoint transform."""

import cmath
import math
import random

import pytest

from logtrig import (AccuracyError, DomainError, QuadratureResult,
                     integrate_adaptive, integrate_endpoint_oscillatory,
                     tanh_sinh)
from logtrig.quadrature import _WG, _WGK, _XGK, _EndpointMap, _qk15

PI = math.pi

# tail of cos(log(2 cos x)) over (x0, pi/2) with log(2 cos x0) = -2 pi,
# computed independently with 30-digit arithmetic
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


def test_adaptive_reports_failure():
    with pytest.raises(AccuracyError) as info:
        integrate_adaptive(lambda x: math.sin(1.0 / x), 1e-12, 1.0,
                           tol=1e-14, atol=1e-16, limit=64)
    assert info.value.best == pytest.approx(0.504, abs=0.2)
    assert info.value.error_estimate > 0.0


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
    # the log of x^2 + log^2(2 cos x) over (0, pi/2) vanishes exactly
    res = integrate_endpoint_oscillatory(
        lambda x, w: math.log(x * x + w * w), 0.0, PI / 2, "log-cos",
        ("upper",), tol=1e-11, atol=1e-13)
    assert abs(res.value) < 1e-11
    assert res.error_estimate < 1e-9


def test_pure_tail_against_reference_and_brute_force():
    # the oscillatory tail alone: start the interval at the split abscissa
    res = integrate_endpoint_oscillatory(
        lambda x, w: math.cos(w), TAIL_X0, PI / 2, "log-cos", ("upper",),
        2.0 * PI, tol=1e-11, atol=1e-13)
    assert abs(res.value - TAIL_REF) < 1e-12

    mesh = graded_mesh(TAIL_X0, PI / 2, False, True, 10, 1_000_000)
    brute = simpson_sum(lambda x: math.cos(math.log(2.0 * math.cos(x))), mesh)
    assert abs(res.value - brute) < 1e-9


def test_transform_preserves_value_against_graded_panels():
    # three integrands with one or two log-singular oscillatory ends
    def t1a(x, w):
        return math.log(2.0 * (math.sinh(0.5 * x) ** 2 + math.sin(0.5 * w) ** 2))

    def t3a(x, w):
        return (math.sin(2.0 * x) * math.sinh(x)
                / (2.0 * (math.sinh(0.5 * x) ** 2 + math.sin(0.5 * w) ** 2)))

    def t6(x, w):
        return (math.sinh((PI - 6.0 * x) / 2.0)
                / (2.0 * (math.sinh((PI - 6.0 * x) / 4.0) ** 2
                          + math.cos(1.5 * w) ** 2)))

    cases = [
        (t1a, 0.0, PI / 2, "log-cos", 1.0, ("upper",), False),
        (t3a, 0.0, PI / 2, "log-cos", 1.0, ("upper",), False),
        (t6, 0.0, PI, "log-sin", 3.0, ("lower", "upper"), True),
    ]
    for f, a, b, kind, freq, ends, both in cases:
        res = integrate_endpoint_oscillatory(f, a, b, kind, ends,
                                             2.0 * PI / freq,
                                             tol=1e-11, atol=1e-13)

        def w_of(x):
            return math.log(2.0 * (math.sin(x) if kind == "log-sin"
                                   else math.cos(x)))
        mesh = graded_mesh(a, b, both, True, 100_000, 120_000)
        brute = simpson_sum(lambda x: f(x, w_of(x)), mesh)
        assert abs(res.value - brute) < 1e-9


def test_short_period_tail_remainder_against_gamma_ratio():
    # int_0^{pi/2} (2 cos x)^{i beta} dx = (pi/2) G(1 + i beta) / G(1 + i beta/2)^2;
    # beta = 16 makes the tail period 2 pi / beta = 0.39
    mpmath = pytest.importorskip("mpmath")
    beta = 16.0
    ref = complex(mpmath.pi / 2 * mpmath.gamma(1 + 1j * beta)
                  / mpmath.gamma(1 + 0.5j * beta) ** 2)
    for tol, atol in ((1e-9, 1e-11), (1e-11, 1e-13)):
        res = integrate_endpoint_oscillatory(
            lambda x, w: cmath.exp(1j * beta * w), 0.0, PI / 2, "log-cos",
            ("upper",), 2.0 * PI / beta, tol=tol, atol=atol)
        assert abs(res.value - ref) <= res.error_estimate
        assert res.error_estimate <= tol * abs(ref) + atol


# int_0^{pi/2} log^n(2 cos x) dx, from the Taylor coefficients of
# (pi/2) G(1 + s) / G(1 + s/2)^2
LOG_POWER_REFS = ((2, PI ** 3 / 24.0), (3, -0.75 * PI * 1.2020569031595942854))


@pytest.mark.parametrize("n, ref", LOG_POWER_REFS)
def test_decay_only_tail_remainder_against_log_moments(n, ref):
    # no period: the tail factor t^n is far from the constant the geometric
    # remainder assumes
    for tol, atol in ((1e-9, 1e-11), (1e-11, 1e-13)):
        res = integrate_endpoint_oscillatory(
            lambda x, w: w ** n, 0.0, PI / 2, "log-cos", ("upper",),
            tol=tol, atol=atol)
        assert abs(res.value - ref) <= res.error_estimate
        assert res.error_estimate <= tol * abs(ref) + atol


def pinch_centres(alpha, at_end):
    """The cos(w / 2 alpha) = 0 centres t = (2m+1) pi alpha next to one end."""
    def centres(end, lo, hi):
        if end != at_end:
            return []
        ts = ((2 * m + 1) * PI * alpha for m in range(int(60.0 / (PI * alpha)) + 1))
        return [t for t in ts if lo <= t <= hi]
    return centres


@pytest.mark.parametrize("alpha", (2.0, 5.78))
def test_pinch_substitution_against_tanh_closed_form(alpha):
    # int_0^pi sinh(x/a) / (cosh(x/a) + cos(w/a)) dx = pi tanh(pi / 4a) with
    # w = log(2 sin x); near x = 0 the poles at t = (2m+1) pi a sit e^{-t}/2
    # from the path, and missing the one at t = pi a costs 4e-8 (a = 2) and
    # 2.4e-7 (a = 5.78)
    def f(x, w):
        return math.sinh(x / alpha) / (
            2.0 * (math.sinh(0.5 * x / alpha) ** 2 + math.cos(0.5 * w / alpha) ** 2))

    ref = PI * math.tanh(0.25 * PI / alpha)
    tol, atol = 1e-10, 1e-12
    res = integrate_endpoint_oscillatory(
        f, 0.0, PI, "log-sin", ("lower", "upper"), 2.0 * PI * alpha,
        tol=tol, atol=atol, tail_points=pinch_centres(alpha, "lower"))
    assert abs(res.value - ref) <= res.error_estimate
    assert res.error_estimate <= tol * ref + atol


@pytest.mark.parametrize("alpha", (9.4, 12.8))
def test_pinch_at_an_upper_end_mirrors_the_lower_end(alpha):
    # the same integral over (0, pi/2) through log(2 cos x) with its pole
    # next to the upper end and through log(2 sin x) next to the lower end.
    # The kernel reads the distance d to the end from w alone.  At alpha =
    # 9.4 the pole at t = 29.5 carries 4e-12, ten times the two estimates; at
    # alpha = 12.8 (t = 40.2) x(t) rounds onto pi/2, so a gap taken as a
    # difference of abscissae would be 0
    def f(x, w):
        d = math.asin(0.5 * math.exp(w))
        return math.sinh(d / alpha) / (
            2.0 * (math.sinh(0.5 * d / alpha) ** 2 + math.cos(0.5 * w / alpha) ** 2))

    upper, lower = (integrate_endpoint_oscillatory(
        f, 0.0, PI / 2, kind, (end,), 2.0 * PI * alpha, tol=1e-11, atol=1e-13,
        tail_points=pinch_centres(alpha, end))
        for kind, end in (("log-cos", "upper"), ("log-sin", "lower")))
    assert abs(upper.value - lower.value) <= upper.error_estimate + lower.error_estimate
    for res in (upper, lower):
        assert res.error_estimate <= 1e-11 * abs(res.value) + 1e-13


@pytest.mark.parametrize("map_kind, ends", [
    ("log-cos", ()), ("log-cos", ("middle",)), ("log-cos", ("upper", "upper")),
    ("log-tan", ("upper",))])
def test_endpoint_engine_rejects_bad_arguments(map_kind, ends):
    with pytest.raises(DomainError):
        integrate_endpoint_oscillatory(lambda x, w: w, 0.0, PI / 2,
                                       map_kind, ends)


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


def tail_x_ref(map_kind, endpoint, t):
    u = 0.5 * math.exp(-t)
    if map_kind == "log-cos":
        return math.copysign(math.acos(u), endpoint)
    if map_kind == "log-sin":
        return math.asin(u) if endpoint < 1.0 else PI - math.asin(u)
    return 2.0 * math.asin(u) if endpoint < 1.0 else 2.0 * PI - 2.0 * math.asin(u)


def tail_measure_ref(map_kind, t):
    u = 0.5 * math.exp(-t)
    base = math.exp(-t) / (2.0 * math.sqrt(1.0 - u * u))
    return 2.0 * base if map_kind == "log-sin-half" else base


TAIL_ENDS = [
    ("log-cos", "upper", PI / 2), ("log-cos", "lower", -PI / 2),
    ("log-sin", "lower", 0.0), ("log-sin", "upper", PI),
    ("log-sin-half", "lower", 0.0), ("log-sin-half", "upper", 2.0 * PI)]


@pytest.mark.parametrize("map_kind, end, endpoint", TAIL_ENDS,
                         ids=[f"{kind}-{x}" for kind, _, x in TAIL_ENDS])
def test_tail_map_matches_reference_bit_for_bit(map_kind, end, endpoint):
    def f(x, w):
        return x + 3.0 * w

    emap = _EndpointMap.at(map_kind, end)
    g = emap.tail(f)
    for i in range(200):
        t = 2.0 + 58.0 * i / 199
        x = tail_x_ref(map_kind, endpoint, t)
        assert emap.x(t) == x
        assert g(t) == f(x, -t) * tail_measure_ref(map_kind, t)
