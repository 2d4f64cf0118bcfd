"""The identity catalog: each case pairs a quadrature side with a closed form.

A case owns its integrand, a domain predicate and the closed-form evaluator.
The integrand is the quadrature's one integral: f(y, w) over (0, pi/2], w =
log(2 sin y) (``integrate_endpoint_oscillatory``), with the case's path
written into the kernel.  Every path meets the same w at x = pi/2 - y (log
cos), y (log sin) or 2y (log sin(x/2)).  A one-ended or conjugate-even
kernel takes x = pi/2 - y; a two-ended kernel computes its factors of w
once and adds its two mirror abscissae: pi/2 - y and y - pi/2, y and pi - y,
or 2y and 2 pi - 2y times 2.  Each kernel writes its denominator
cosh(u) -/+ cos(v) inline as 2*(sinh(u/2)^2 + sin/cos(v/2)^2), which cannot
lose precision or hit an accidental zero near the tail spikes, or, where u
grows large, as expm1(-u)^2 + 4 e^{-u} sin/cos(v/2)^2 = 2 e^{-u} (cosh(u)
-/+ cos(v)), with the numerator scaled alike.  Where such a sum of squares
a^2 + b^2 falls below the normal range (alpha above about 1e154), it has
lost its digits; the T1, T4, DISC-L and DISC-IM kernels then divide by h =
hypot(a, b) twice, or take 2 log h, instead.

Domain notes.  The arctan kernel on (0, 2*pi) needs every jump level
2 sin(x/2) = exp((2m+1) pi alpha / 3), m >= 0, to lie above 2, hence
alpha > 3 ln2 / pi.  Resonant parameters that drop a denominator zero onto
an interval end are refused, never regularized.  The sin 2x pole-kernel
cases state their value for i times the raw integral, which parity makes
real.
"""

from __future__ import annotations

import cmath
import itertools
import math
import sys
from functools import partial
from types import MappingProxyType
from typing import Callable, NamedTuple, Sequence

from .elliptic import EllipticParams
from .errors import AccuracyError, DomainError, SolverError
from .quadrature import QuadratureResult, integrate_endpoint_oscillatory
from .series import (cosh_third_sum, csch, gamma_fn, inv_expm1,
                     lambert_plain, product_one_minus, product_one_plus,
                     sinh2_sum_integer, sinh2_sum_odd)
from .solver import modulus_from_alpha

__all__ = [
    "IdentityCase",
    "VerificationRow",
    "catalog",
    "case_by_id",
    "default_params_grid",
    "case_params",
    "check_tolerances",
    "evaluate_lhs",
    "lhs_key",
    "evaluate_rhs",
    "verify_case",
    "contour_trace",
    "contour_path_points",
    "ALPHA_GRID",
    "A_GRID",
    "THETA_GRID",
    "GAMMA_GRID",
    "PARAM_NAMES",
]

LN2 = math.log(2.0)
PI = math.pi
_HALF_PI = PI / 2
SQRT3 = math.sqrt(3.0)

ALPHA_GRID = (0.25, 0.5, 0.8, 1.0, 1.5, SQRT3, 2.0, 3.0)
A_GRID = (-1.0, 0.3, 2.0)
THETA_GRID = (-0.4, 0.0, PI / 4.0)
GAMMA_GRID = (0.0, 1.0, 2.0, 2.5)

Params = dict[str, float]

# Parameters each param_kind takes, outermost grid loop first.  The other
# kind, "fixed", takes none: its cases run at their ``fixed_params``.
PARAM_NAMES: dict[str, tuple[str, ...]] = {
    "alpha": ("alpha",), "a": ("a",), "a-theta": ("theta", "a"),
    "a-gamma": ("gamma", "a")}


class IdentityCase(NamedTuple):
    id: str
    description: str
    interval: tuple[float, float]
    param_kind: str                # a key of PARAM_NAMES, or "fixed"
    map_kind: str                  # "log-cos" | "log-sin" | "log-sin-half"
    freq: float                    # oscillation multiplier c; 0 = decay only
    osc_ends: tuple[str, ...]      # the interval ends where w diverges
    # params -> f(y, w), the path's abscissae written in (module docstring)
    integrand: Callable[[Params], Callable[[float, float], float | complex]]
    rhs: Callable[[Params], float | complex]
    domain: Callable[[Params], bool]
    complex_valued: bool = False   # descriptive; complex values take one pass
    # extra interior cuts, as t = -w, where a kernel's feature would escape
    # bisection or a cut saves evaluations; the engine keeps those in
    # (-ln 2, 2) and already cuts at t = 1, 0 and -0.5
    interior_points: Callable[[Params], tuple[float, ...]] = lambda p: ()
    # None, or (lo, hi) -> the kernel's poles next to the path with centres
    # c in [lo, hi], as (c, rho): a simple pole where w + ix = -c, the kernel
    # ~ i rho / (w + ix + c), and its conjugate (integrate_endpoint_oscillatory)
    tail_points: Callable[[Params], Callable | None] = lambda p: None
    fixed_params: MappingProxyType[str, float] = MappingProxyType({})
    # the quarter-period points j period / 4 of t, by j mod 4, where the
    # kernel's denominator is smallest and its poles pinch the path: the
    # only lattice cuts of the tails; none for freq 0, and none where
    # ``tail_points`` declares those poles, which the tails subtract
    pinch_quarters: tuple[int, ...] = ()
    # the x-form kernel has f(-x, w) = conj f(x, w) on the log-cos path
    # (-pi/2, pi/2), so the integrand takes only its half x = pi/2 - y
    conjugate_even: bool = False


class VerificationRow(NamedTuple):
    case_id: str
    params: Params
    lhs: float | complex | None
    rhs: float | complex | None
    abs_err: float | None
    rel_err: float | None
    status: str                    # "pass" | "fail" | "skipped" | "error"
    evaluations: int
    detail: str = ""


# ---------------------------------------------------------------------------
# building blocks

# Below |a| = _SMALL_A the closed forms sum the Bernoulli series (DLMF
# 24.2.1) of terms that cancel as written: 1/a^2 - e^a/(e^a - 1)^2 (about
# eps/a^2 lost) and 1/(e^a - 1) - 1/a (eps/a); their first omitted terms
# are below 1e-17.  At and above it the direct expressions stay.
_SMALL_A = 0.05


def _sine_kernel_s(a: float) -> float:
    """1/a^2 + e^b - e^b/(e^b - 1)^2 with b = min(a, ln 2)."""
    b = min(a, LN2)
    eb = math.exp(b)
    if abs(a) < _SMALL_A:
        a2 = a * a
        return eb + (1 / 12 - a2 * (1 / 240 - a2 * (1 / 6048 - a2 / 172800)))
    return 1.0 / (a * a) + eb - eb / math.expm1(b) ** 2


def _pole_gap(a: float) -> float:
    """1/(e^a - 1) - 1/a, for |a| < _SMALL_A."""
    a2 = a * a
    return -0.5 + a * (1 / 12 - a2 * (1 / 720 - a2 * (1 / 30240 - a2 / 1209600)))


def _not_near_integer(value: float, lowest: int, step: int) -> bool:
    """True when value is not within 1e-9 of lowest, lowest+step, ..."""
    if value < lowest - 0.5:
        return True
    n = max(lowest, lowest + step * round((value - lowest) / step))
    return abs(value - n) > 1e-9


def _alpha_above(lowest: float) -> Callable[[Params], bool]:
    return lambda p: p["alpha"] > lowest


def _a_ok(p: Params) -> bool:
    return abs(p["a"]) > 1e-9 and abs(p["a"] - LN2) > 1e-9


def _theta_ok(p: Params) -> bool:
    """|theta| < pi/2, and the pole a - i theta does not sit on the path."""
    return (abs(p["theta"]) < PI / 2
            and abs(p["a"] - math.log(2.0 * math.cos(p["theta"]))) > 1e-9)


def _enclosed_count(reach: float, stride: int = 1) -> int:
    """#{j = 1, 1 + stride, ... : j < reach}: the poles a path encloses, of
    DISC-IM at x = 2 pi alpha m < pi/3, where Re z crosses 0, and of DISC-L
    at Re z = j pi alpha < ln 2, the largest Re z = log(2 cos x)."""
    return len(range(1, math.ceil(reach), stride))


# ---------------------------------------------------------------------------
# case table

def _elliptic(p: Params) -> EllipticParams:
    return modulus_from_alpha(p["alpha"])


def _intro1_f(p: Params):
    a = p["a"]

    def f(y: float, w: float) -> float:
        x = _HALF_PI - y
        return math.log(x * x + (w - a) ** 2)
    return f


def _intro2_f(p: Params):
    a = p["a"]

    def f(y: float, w: float) -> float:
        x = _HALF_PI - y
        return math.log(x * x + (w - a) ** 2) * math.cos(2.0 * x)
    return f


def _intro3_f(p: Params):
    a = p["a"]

    def f(y: float, w: float) -> float:
        x = _HALF_PI - y
        return x * math.sin(2.0 * x) / (x * x + (w - a) ** 2)
    return f


def _intro2_rhs(p: Params) -> float:
    a = p["a"]
    if abs(a) < _SMALL_A:
        return 0.5 * PI * (_pole_gap(a) - math.expm1(a))
    b = min(a, LN2)
    return 0.5 * PI * (1.0 - 1.0 / a - math.exp(b) + 1.0 / math.expm1(b))


def _intro4_f(p: Params):
    a, g = p["a"], p["gamma"]

    def f(y, w):
        x = _HALF_PI - y
        weight = math.exp(g * w) * complex(math.cos(g * x), math.sin(g * x))
        return weight / complex(w - a, x)
    return f


def _intro4_rhs(p: Params) -> complex:
    a, g = p["a"], p["gamma"]
    if abs(a) < _SMALL_A:
        return complex(PI * (math.expm1((g + 1.0) * a) / math.expm1(a)
                             + _pole_gap(a)), 0.0)
    value = -PI / a
    if a < LN2:
        value += PI * math.exp((g + 1.0) * a) / math.expm1(a)
    return complex(value, 0.0)


# Each T-kernel family divides by cosh(u) -/+ cos(v), written as 2
# (sinh(u/2)^2 + trig(v/2)^2): the "a" member takes trig = sin, the "b" cos.

def _t1_f(trig: Callable[[float], float], p: Params):
    al, log, sinh, hypot = p["alpha"], math.log, math.sinh, math.hypot
    tiny = sys.float_info.min

    def f(y: float, w: float) -> float:
        a, b = sinh(0.5 * ((_HALF_PI - y) / al)), trig(0.5 * (w / al))
        d = a ** 2 + b ** 2
        return log(2.0 * d) if d >= tiny else LN2 + 2.0 * log(hypot(a, b))
    return f


def _t3_f(trig: Callable[[float], float], p: Params):
    al, sin, sinh = p["alpha"], math.sin, math.sinh

    def f(y: float, w: float) -> float:
        x = _HALF_PI - y
        u = x / al
        return (sin(2.0 * x) * sinh(u)
                / (2.0 * (sinh(0.5 * u) ** 2 + trig(0.5 * (w / al)) ** 2)))
    return f


def _t4_f(trig: Callable[[float], float], p: Params):
    al, sin, cos, sinh = p["alpha"], math.sin, math.cos, math.sinh
    hypot, tiny = math.hypot, sys.float_info.min

    def f(y: float, w: float) -> float:
        x, v = _HALF_PI - y, w / al
        a, b = sinh(0.5 * (x / al)), trig(0.5 * v)
        d = a ** 2 + b ** 2
        if d >= tiny:
            return cos(2.0 * x) * sin(v) / (2.0 * d)
        h = hypot(a, b)
        return cos(2.0 * x) * sin(v) / (2.0 * h) / h
    return f


def _t5_f(trig: Callable[[float], float], p: Params):
    al, sinh = p["alpha"], math.sinh

    def f(y: float, w: float) -> float:
        b2 = trig(0.5 * (4.0 * w / al)) ** 2
        u, v = (4.0 * y - PI) / al, (4.0 * (PI - y) - PI) / al
        return (sinh(u) / (2.0 * (sinh(0.5 * u) ** 2 + b2))
                + sinh(v) / (2.0 * (sinh(0.5 * v) ** 2 + b2)))
    return f


_t1a_f, _t1b_f = partial(_t1_f, math.sin), partial(_t1_f, math.cos)
_t3a_f, _t3b_f = partial(_t3_f, math.sin), partial(_t3_f, math.cos)
_t4a_f, _t4b_f = partial(_t4_f, math.sin), partial(_t4_f, math.cos)
_t5a_f, _t5b_f = partial(_t5_f, math.sin), partial(_t5_f, math.cos)


def _t1a_rhs(p: Params) -> float:
    al = p["alpha"]
    ep = _elliptic(p)
    return (-PI * PI * al / 12.0
            - PI / 6.0 * math.log(16.0 * ep.k * ep.k_prime * ep.big_k ** 3
                                  * al ** 6 / PI ** 3))


def _t1b_rhs(p: Params) -> float:
    ep = _elliptic(p)
    return (PI * PI * p["alpha"] / 24.0
            + PI / 6.0 * math.log(4.0 * math.sqrt(ep.k) / ep.k_prime))


def _t1pa_rhs(p: Params) -> float:
    al = p["alpha"]
    prod = product_one_minus(al).direct
    # -(pi/2) log(2 alpha^2), written without alpha^2, which overflows
    # above alpha = 1.34e154
    return -PI * (0.5 * LN2 + math.log(al)) - PI * math.log(prod)


def _t1pb_rhs(p: Params) -> float:
    prod = product_one_plus(p["alpha"]).direct
    return 0.5 * PI * LN2 + PI * math.log(prod)


def _t2_f(p: Params):
    al, cos, cosh, sinh = p["alpha"], math.cos, math.cosh, math.sinh

    def f(y: float, w: float) -> float:
        x = _HALF_PI - y
        return (cosh(0.5 * x / al) * cos(0.5 * w / al)
                / (2.0 * (sinh(0.5 * (x / al)) ** 2 + cos(0.5 * (w / al)) ** 2)))
    return f


def _t2_rhs(p: Params) -> float:
    return PI * (p["alpha"] + 2.0) / 8.0 - p["alpha"] * _elliptic(p).big_k / 4.0


def _sine_f(p: Params):
    a = p.get("a", 0.0)

    def f(y: float, w: float) -> complex:
        x = _HALF_PI - y
        return 1j * math.sin(2.0 * x) / complex(w - a, x)
    return f


# one closed form per T3/T4 pair, with sign 1 for T3 and -1 for T4
def _t34a_rhs(constant: float, sign: float, p: Params) -> float:
    al = p["alpha"]
    ep = _elliptic(p)
    return (constant * PI * al / 48.0 + sign * PI / (24.0 * al)
            + PI * al / (4.0 * math.tanh(PI * al))
            + sign * al / (4.0 * PI)
            * (ep.big_e - (2.0 - ep.k ** 2) / 3.0 * ep.big_k) * ep.big_k)


def _t34b_rhs(sign: float, p: Params) -> float:
    al = p["alpha"]
    ep = _elliptic(p)
    return (PI / (8.0 * al) + sign * PI * al / (4.0 * math.sinh(PI * al))
            + al / (4.0 * PI) * (ep.big_e - ep.big_k) * ep.big_k)


_t3a_rhs, _t3b_rhs = partial(_t34a_rhs, 13.0, 1.0), partial(_t34b_rhs, 1.0)
_t4a_rhs, _t4b_rhs = partial(_t34a_rhs, 11.0, -1.0), partial(_t34b_rhs, -1.0)


def _cos_rhs(p: Params) -> complex:
    a = p["a"]
    value = -0.5 * PI * _sine_kernel_s(a)
    if a < LN2:
        value += PI * math.exp(a)
    return complex(value, 0.0)


def _t4pa_rhs(p: Params) -> float:
    al = p["alpha"]
    s = sinh2_sum_integer(al).direct
    return (11.0 * PI * al / 24.0 - PI / (24.0 * al)
            + PI * al / 2.0 * inv_expm1(2.0 * PI * al) + PI * al / 8.0 * s)


def _t4pb_rhs(p: Params) -> float:
    al = p["alpha"]
    s = sinh2_sum_odd(al).direct
    return (PI / (8.0 * al) - PI * al / 4.0 * csch(PI * al)
            - PI * al / 8.0 * s)


def _t5a_rhs(p: Params) -> float:
    al = p["alpha"]
    ep = _elliptic(p)
    return (PI / math.tanh(0.5 * PI / al) - PI * al / (8.0 * (math.sqrt(2.0) - 1.0))
            - al * ep.big_k / 4.0 * (1.0 + math.sqrt(2.0 + 2.0 * ep.k)))


def _t5b_rhs(p: Params) -> float:
    al = p["alpha"]
    ep = _elliptic(p)
    return (PI * math.tanh(0.5 * PI / al)
            - al * ep.k * ep.big_k / 4.0 * (1.0 + math.sqrt(2.0 + 2.0 / ep.k)))


def _t6_f(p: Params):
    # sinh(s)/(cosh(s) + cos(v)) with s = (pi - 6x)/2 alpha, both sides
    # scaled by 2 e^{-|s|} as in _im_f
    al, two_al = p["alpha"], 2.0 * p["alpha"]
    cos, exp, expm1, copysign = math.cos, math.exp, math.expm1, math.copysign

    def f(y: float, w: float) -> float:
        c2 = cos(0.5 * (3.0 * w / al)) ** 2
        s, r = (PI - 6.0 * y) / two_al, (PI - 6.0 * (PI - y)) / two_al
        u, v = abs(s), abs(r)
        return (copysign(-expm1(-2.0 * u), s) / (expm1(-u) ** 2 + 4.0 * exp(-u) * c2)
                + copysign(-expm1(-2.0 * v), r) / (expm1(-v) ** 2 + 4.0 * exp(-v) * c2))
    return f


def _t6_rhs(p: Params) -> float:
    al = p["alpha"]
    s = cosh_third_sum(al).direct
    return al * PI / SQRT3 * s - PI * math.tanh(0.5 * PI / al)


def _t7_f(p: Params):
    al, atan, tanh, cos = p["alpha"], math.atan, math.tanh, math.cos

    def f(y: float, w: float) -> float:
        tn, x, z = math.tan(1.5 * w / al), 2.0 * y, 2.0 * PI - 2.0 * y
        return 2.0 * (atan(tanh((PI - 3.0 * x) / (4.0 * al)) * tn) * cos(x)
                      + atan(tanh((PI - 3.0 * z) / (4.0 * al)) * tn) * cos(z))
    return f


def _t7_rhs(p: Params) -> float:
    al = p["alpha"]
    s = cosh_third_sum(al).direct
    return (1.5 * PI / al * math.tanh(0.5 * PI / al)
            - PI * SQRT3 / 4.0 * csch(PI * al / 3.0)
            - SQRT3 * PI / 2.0 * s)


def _theta2_f(p: Params):
    a, th, cos = p["a"], p["theta"], math.cos

    def f(y: float, w: float) -> complex:
        d, x, z = w - a, _HALF_PI - y, y - _HALF_PI
        return cos(2.0 * x) / complex(d, x + th) + cos(2.0 * z) / complex(d, z + th)
    return f


def _cos_f(p: Params):
    # THETA2's kernel at theta = 0 on its half path x >= 0, where x + 0.0 is x
    a = p["a"]

    def f(y: float, w: float) -> complex:
        x = _HALF_PI - y
        return math.cos(2.0 * x) / complex(w - a, x)
    return f


def _theta2_rhs(p: Params) -> complex:
    a, th = p["a"], p["theta"]
    pole = complex(-a, th)
    value = -0.5 * PI / (pole * pole)
    if a < math.log(2.0 * math.cos(th)):
        w = cmath.exp(complex(a, -th))
        value += 0.5 * PI * (w + w / (1.0 - w) ** 2)
    return value


def _appa_f(p: Params):
    a, th = p["a"], p["theta"]

    def f(y: float, w: float) -> complex:
        d, x, z = w - a, _HALF_PI - y, y - _HALF_PI
        return 1.0 / complex(d, x + th) + 1.0 / complex(d, z + th)
    return f


def _appa_rhs(p: Params) -> complex:
    a, th = p["a"], p["theta"]
    value = PI / complex(-a, th)
    if a < math.log(2.0 * math.cos(th)):
        value += PI / (1.0 - cmath.exp(complex(-a, th)))
    return value


def _contour_f(p: Params):
    al = p["alpha"]

    def f(y, w):
        x = _HALF_PI - y
        z = complex(w, x)
        num = complex(-math.tan(x), 1.0)
        den = (1.0 - cmath.exp(-z)) * cmath.cos(z / (2.0 * al))
        return num / den / 8j
    return f


def _l_f(trig: Callable[[float], float], p: Params):
    # sin(v)/(cosh(u) -/+ cos(v)) for trig = sin/cos, u = x/alpha, v = w/alpha,
    # both sides scaled by 2 e^{-u} so that neither overflows at small alpha;
    # a denominator below the normal range has u < 1e-154, so e = 1 there
    al, sin, exp, expm1 = p["alpha"], math.sin, math.exp, math.expm1
    hypot, tiny = math.hypot, sys.float_info.min

    def f(y: float, w: float) -> float:
        u, v = (_HALF_PI - y) / al, w / al
        e = exp(-u)
        a, b = expm1(-u), trig(0.5 * v)
        d = a ** 2 + 4.0 * e * b ** 2
        if d >= tiny:
            return 2.0 * e * sin(v) / d
        h = hypot(a, 2.0 * b)
        return 2.0 * e * sin(v) / h / h
    return f


_l1_f, _l2_f = partial(_l_f, math.sin), partial(_l_f, math.cos)


def _lambert_outside(alpha: float, odd: bool) -> float:
    """pi alpha times DISC-L1's (DISC-L2's, ``odd``) Lambert sum over its
    poles outside the path, less the count of those inside: an enclosed
    pole's residue term 1/(1 - e^{-x}) is its Lambert term 1/(e^x - 1) + 1."""
    n = _enclosed_count(LN2 / (PI * alpha if odd else 2.0 * PI * alpha),
                        2 if odd else 1)
    return PI * alpha * lambert_plain(alpha, odd, n).direct - PI * alpha * n


def _p1_f(p: Params):
    a = p["a"]

    def f(y: float, w: float) -> float:
        d2, x = (w + a) ** 2, PI - y
        return y / (y * y + d2) + x / (x * x + d2)
    return f


def _p2_f(p: Params):
    a = p["a"]

    def f(y: float, w: float) -> float:
        d, x = w + a, PI - y
        d2 = d ** 2
        return d / (y * y + d2) + d / (x * x + d2)
    return f


def _p3_f(p: Params):
    # DISC-L2's kernel on (0, pi), without its hypot branch: a denominator
    # below the normal range needs x/alpha < 1e-154 and |cos(v/2)| < 1e-154,
    # so |w| > pi alpha, at once, but |w| <= 60 and x >= e^{-60}/2 here
    al, sin, cos, exp, expm1 = p["alpha"], math.sin, math.cos, math.exp, math.expm1

    def f(y: float, w: float) -> float:
        v = w / al
        sv, b2 = sin(v), cos(0.5 * v) ** 2
        u, r = y / al, (PI - y) / al
        e, q = exp(-u), exp(-r)
        return (2.0 * e * sv / (expm1(-u) ** 2 + 4.0 * e * b2)
                + 2.0 * q * sv / (expm1(-r) ** 2 + 4.0 * q * b2))
    return f


def _p4_f(p: Params):
    # sinh(u)/(cosh(u) + cos(v)), u = x/alpha, scaled by 2 e^{-u} as in _l_f
    al, cos, exp, expm1 = p["alpha"], math.cos, math.exp, math.expm1

    def f(y: float, w: float) -> float:
        c2 = cos(0.5 * (w / al)) ** 2
        u, r = y / al, (PI - y) / al
        return (-expm1(-2.0 * y / al) / (expm1(-u) ** 2 + 4.0 * exp(-u) * c2)
                - expm1(-2.0 * (PI - y) / al) / (expm1(-r) ** 2 + 4.0 * exp(-r) * c2))
    return f


def _p34_poles(numerator: complex):
    """Poles of a DISC-P3/P4 kernel next to the path, as (c, rho): in z = w
    + ix the kernel is (tan(z/2 alpha) - tan(z*/2 alpha)) / 2i (DISC-P4) or
    (tan(z/2 alpha) + tan(z*/2 alpha)) / 2 (DISC-P3), and tan(z/2 alpha) ~
    -2 alpha / (z + c) at c = (2k+1) pi alpha, so rho = ``numerator`` alpha.
    Next to the upper end no pole comes close."""
    def tail_points(p: Params):
        half, rho = PI * p["alpha"], numerator * p["alpha"]

        def poles(lo: float, hi: float) -> list[tuple[float, complex]]:
            ks = range(max(0, math.floor(0.5 * (lo / half - 1.0))),
                       math.ceil(0.5 * (hi / half + 1.0)))
            return [(c, rho) for k in ks if lo <= (c := (2 * k + 1) * half) <= hi]
        return poles
    return tail_points


def _im_f(p: Params):
    # sinh(s)/(cosh(s) - cos(v)) with s = w/alpha and v = x/alpha, both sides
    # scaled by 2 e^{-|s|}: nothing overflows however far the tail runs; a
    # denominator below the normal range has s < 1e-154, so e^{-s} = 1 there
    al, hypot, tiny = p["alpha"], math.hypot, sys.float_info.min
    sin, exp, expm1, copysign = math.sin, math.exp, math.expm1, math.copysign

    def f(y: float, w: float) -> float:
        s = abs(w) / al
        a, b = expm1(-s), sin(0.5 * ((_HALF_PI - y) / al))
        d = a ** 2 + 4.0 * exp(-s) * b ** 2
        if d >= tiny:
            return copysign(-expm1(-2.0 * s), w) / d
        h = hypot(a, 2.0 * b)
        return copysign(-expm1(-2.0 * s), w) / h / h

    return f


# The four paths, as (interval, map_kind, osc_ends): log cos on (0, pi/2)
# and on (-pi/2, pi/2), log sin on (0, pi), log sin(x/2) on (0, 2 pi).  The
# log-trig value diverges at exactly the ends listed.
_COS_HALF = ((0.0, PI / 2), "log-cos", ("upper",))
_COS_FULL = ((-PI / 2, PI / 2), "log-cos", ("lower", "upper"))
_SIN = ((0.0, PI), "log-sin", ("lower", "upper"))
_SIN_HALF = ((0.0, 2.0 * PI), "log-sin-half", ("lower", "upper"))

# Pinch quarters, from the zeros in w = -t of each kernel's denominator at
# u = 0: cosh(u) - cos(c w / alpha) at whole periods, cosh(u) + cos(...) at
# half periods, and cos(w / 2 alpha), or the poles of tan(1.5 w / alpha),
# at the odd quarters.  DISC-P3/P4 declare their poles instead.
_WHOLE, _HALF, _ODD = (0,), (2,), (1, 3)

_CASES: list[IdentityCase] = []


def _add(id: str, description: str, path: tuple, param_kind: str, freq: float,
         integrand, rhs, domain, **extra) -> None:
    interval, map_kind, osc_ends = path
    _CASES.append(IdentityCase(id, description, interval, param_kind, map_kind,
                               freq, osc_ends, integrand, rhs, domain, **extra))


_add("INTRO-1", "log of x^2 + (log(2 cos x) - a)^2 on (0, pi/2)", _COS_HALF,
     "a", 0.0, _intro1_f,
     lambda p: PI * math.log(p["a"] / math.expm1(min(p["a"], LN2))),
     _a_ok)

_add("INTRO-2", "same log kernel weighted by cos 2x", _COS_HALF, "a", 0.0,
     _intro2_f, _intro2_rhs, _a_ok)

_add("INTRO-3", "x sin 2x over the squared-distance kernel", _COS_HALF, "a",
     0.0, _intro3_f, lambda p: 0.25 * PI * _sine_kernel_s(p["a"]),
     _a_ok)

_add("INTRO-4", "binomial weight (1+e^{2ix})^gamma over the pole kernel",
     _COS_FULL, "a-gamma", 0.0, _intro4_f, _intro4_rhs,
     lambda p: _a_ok(p) and p["gamma"] >= 0.0, complex_valued=True,
     conjugate_even=True)

_add("T1-A", "log(cosh(x/a) - cos(log(2cos x)/a)) vs eta-type closed form",
     _COS_HALF, "alpha", 1.0, _t1a_f, _t1a_rhs, _alpha_above(LN2 / (2.0 * PI)),
     pinch_quarters=_WHOLE)

_add("T1-B", "log(cosh + cos) vs algebraic modulus closed form", _COS_HALF,
     "alpha", 1.0, _t1b_f, _t1b_rhs, _alpha_above(LN2 / PI),
     pinch_quarters=_HALF)

_add("T1-PA", "log(cosh - cos) vs direct q-product form", _COS_HALF, "alpha",
     1.0, _t1a_f, _t1pa_rhs, _alpha_above(LN2 / (2.0 * PI)),
     pinch_quarters=_WHOLE)

_add("T1-PB", "log(cosh + cos) vs direct q-product form", _COS_HALF, "alpha",
     1.0, _t1b_f, _t1pb_rhs, _alpha_above(LN2 / PI), pinch_quarters=_HALF)

_add("T2", "half-frequency cosh cos kernel vs pi(alpha+2)/8 - alpha K/4",
     _COS_HALF, "alpha", 0.5, _t2_f, _t2_rhs, _alpha_above(LN2 / PI),
     pinch_quarters=_ODD)

_add("SINE", "i times the sin 2x pole-kernel integral (parity-real)",
     _COS_FULL, "a", 0.0, _sine_f,
     lambda p: complex(0.5 * PI * _sine_kernel_s(p["a"]), 0.0),
     _a_ok, complex_valued=True, conjugate_even=True)

_add("SINE0", "the a = 0 sin 2x pole-kernel value 13 pi/24", _COS_FULL,
     "fixed", 0.0, _sine_f, lambda p: complex(13.0 * PI / 24.0, 0.0),
     lambda p: True, complex_valued=True, conjugate_even=True)

_add("T3-A", "sin 2x sinh kernel over cosh - cos", _COS_HALF, "alpha", 1.0,
     _t3a_f, _t3a_rhs, _alpha_above(LN2 / (2.0 * PI)), pinch_quarters=_WHOLE)

_add("T3-B", "sin 2x sinh kernel over cosh + cos", _COS_HALF, "alpha", 1.0,
     _t3b_f, _t3b_rhs, _alpha_above(LN2 / PI), pinch_quarters=_HALF)

_add("COS", "cos 2x pole-kernel integral with Heaviside switch", _COS_FULL,
     "a", 0.0, _cos_f, _cos_rhs, _a_ok, complex_valued=True,
     conjugate_even=True)

_add("T4-A", "cos 2x sin(log-term) kernel over cosh - cos", _COS_HALF,
     "alpha", 1.0, _t4a_f, _t4a_rhs, _alpha_above(LN2 / (2.0 * PI)),
     pinch_quarters=_WHOLE)

_add("T4-B", "cos 2x sin(log-term) kernel over cosh + cos", _COS_HALF,
     "alpha", 1.0, _t4b_f, _t4b_rhs, _alpha_above(LN2 / PI),
     pinch_quarters=_HALF)

_add("T4-PA", "cos 2x sin kernel vs direct sinh^-2 sum form", _COS_HALF,
     "alpha", 1.0, _t4a_f, _t4pa_rhs, _alpha_above(LN2 / (2.0 * PI)),
     pinch_quarters=_WHOLE)

_add("T4-PB", "cos 2x sin kernel vs direct odd sinh^-2 sum form", _COS_HALF,
     "alpha", 1.0, _t4b_f, _t4pb_rhs, _alpha_above(LN2 / PI),
     pinch_quarters=_HALF)

_add("S3-T5A", "sinh((4x-pi)/a) over cosh - cos(4 log(2sin x)/a) on (0, pi)",
     _SIN, "alpha", 4.0, _t5a_f, _t5a_rhs, _alpha_above(LN2 / PI),
     pinch_quarters=_WHOLE)

_add("S3-T5B", "same kernel over cosh + cos, sqrt(2+2/k) closed form", _SIN,
     "alpha", 4.0, _t5b_f, _t5b_rhs, _alpha_above(2.0 * LN2 / PI),
     pinch_quarters=_HALF)

_add("S3-T6", "sinh((pi-6x)/2a) kernel, cn(i K'/3, k) closed form", _SIN,
     "alpha", 3.0, _t6_f, _t6_rhs, _alpha_above(0.0), pinch_quarters=_HALF)

_add("S3-T7", "arctan(tanh/cot) kernel weighted by cos x on (0, 2 pi)",
     _SIN_HALF, "alpha", 1.5, _t7_f, _t7_rhs, _alpha_above(3.0 * LN2 / PI),
     pinch_quarters=_ODD)

_add("THETA2", "cos 2x kernel with shifted pole i(x+theta) - a", _COS_FULL,
     "a-theta", 0.0, _theta2_f, _theta2_rhs, _theta_ok, complex_valued=True)

_add("EX-1", "log(cosh + cos) at alpha = sqrt(3), gamma-free value", _COS_HALF,
     "fixed", 1.0, _t1b_f,
     lambda p: (PI * PI / (8.0 * SQRT3) - 0.25 * PI * math.log(1.0 + SQRT3)
                + 13.0 * PI / 24.0 * LN2),
     lambda p: True, fixed_params=MappingProxyType({"alpha": SQRT3}),
     pinch_quarters=_HALF)

_add("EX-2", "half-frequency kernel at alpha = 2, Gamma(1/4) value", _COS_HALF,
     "fixed", 0.5, _t2_f,
     lambda p: (0.5 * PI - (math.sqrt(2.0) + 1.0) * gamma_fn(0.25) ** 2
                / (16.0 * math.sqrt(2.0 * PI))),
     lambda p: True, fixed_params=MappingProxyType({"alpha": 2.0}),
     pinch_quarters=_ODD)

_add("EX-3", "cn(i K'/3) kernel at alpha = sqrt(3), Gamma(1/3) value", _SIN,
     "fixed", 3.0, _t6_f,
     lambda p: (gamma_fn(1.0 / 3.0) ** 3 / (2.0 ** (10.0 / 3.0) * PI)
                - PI * math.tanh(0.5 * PI / SQRT3)),
     lambda p: True, fixed_params=MappingProxyType({"alpha": SQRT3}),
     pinch_quarters=_HALF)

_add("DISC-CONTOUR", "parametrized contour integral of the half-frequency kernel",
     _COS_FULL, "alpha", 0.5, _contour_f, _t2_rhs, _alpha_above(LN2 / PI),
     complex_valued=True, pinch_quarters=_ODD, conjugate_even=True)

_add("DISC-L1", "sin(log-term) over cosh - cos vs plain Lambert sum over 2 m "
     "pi alpha > ln 2, plus pi alpha #{m >= 1 : 2 m pi alpha < ln 2}",
     _COS_HALF, "alpha", 1.0, _l1_f,
     lambda p: 0.5 * PI * p["alpha"] - _lambert_outside(p["alpha"], False),
     lambda p: p["alpha"] > 0.0
     and _not_near_integer(LN2 / (2.0 * PI * p["alpha"]), 1, 1),
     pinch_quarters=_WHOLE)

_add("DISC-L2", "sin(log-term) over cosh + cos vs odd Lambert sum over j pi "
     "alpha > ln 2, less pi alpha #{odd j : j pi alpha < ln 2}",
     _COS_HALF, "alpha", 1.0, _l2_f, lambda p: _lambert_outside(p["alpha"], True),
     lambda p: p["alpha"] > 0.0
     and _not_near_integer(LN2 / (PI * p["alpha"]), 1, 2),
     pinch_quarters=_HALF)

_add("DISC-P1", "x over squared-distance kernel of log(2 e^a sin x)", _SIN, "a",
     0.0, _p1_f, lambda p: 2.0 * PI ** 2 / (PI ** 2 + 4.0 * p["a"] ** 2),
     lambda p: True)

_add("DISC-P2", "log(2 e^a sin x) over its squared-distance kernel", _SIN, "a",
     0.0, _p2_f, lambda p: 4.0 * PI * p["a"] / (PI ** 2 + 4.0 * p["a"] ** 2),
     lambda p: True)

# The cos = -1 poles of DISC-P3 and DISC-P4 at t = (2m+1) pi alpha lie at
# a distance of about e^{-t}/2 from the path next to the lower end; each
# case declares them as (c, rho), and the engine subtracts each
# conjugate pair from the tail chunks near it and adds back its exact
# integral, so neither case cuts its tails at the half periods as well.
# freq 1 is the kernels' true period 2 pi alpha in t, so whole-period chunk
# sums shrink geometrically and the tail closes early even at small alpha.
_add("DISC-P3", "sin(log-term)/(cosh + cos) on (0, pi), zero value", _SIN,
     "alpha", 1.0, _p3_f, lambda p: 0.0, _alpha_above(0.0),
     tail_points=_p34_poles(1j))

_add("DISC-P4", "sinh(x/a)/(cosh + cos) on (0, pi), tanh closed form", _SIN,
     "alpha", 1.0, _p4_f, lambda p: PI * math.tanh(0.25 * PI / p["alpha"]),
     _alpha_above(0.0), tail_points=_p34_poles(1.0))

# DISC-IM's kernel turns from -1 to 1 across about alpha in t around w = 0
# (x = pi/3), too narrow below alpha ~ 1e-3 for the panels at the cut t = 0:
# a ladder of cuts, inside the grading cuts t = +-1, reaches in from each side.
_add("DISC-IM", "sinh/cosh roles of x and the log term exchanged, pi alpha "
     "(1/2 + #{m >= 1 : 6 m alpha < 1})", _COS_HALF, "alpha", 0.0, _im_f,
     lambda p: PI * p["alpha"] * (0.5 + _enclosed_count(1.0 / (6.0 * p["alpha"]))),
     lambda p: p["alpha"] > 0.0
     and _not_near_integer(1.0 / (6.0 * p["alpha"]), 1, 1),
     interior_points=lambda p: tuple(j * p["alpha"] for j in (-64, -16, -4, 4, 16, 64)
                                     if abs(j * p["alpha"]) < 1.0))

_add("APPA", "pole kernel 1/(i(x+theta) - a + log(2cos x))", _COS_FULL,
     "a-theta", 0.0, _appa_f, _appa_rhs, _theta_ok, complex_valued=True)

_CASE_MAP = {c.id: c for c in _CASES}


def catalog() -> list[IdentityCase]:
    """All identity cases in canonical order."""
    return list(_CASES)


def case_by_id(case_id: str) -> IdentityCase:
    try:
        return _CASE_MAP[case_id]
    except KeyError:
        raise DomainError(f"unknown case id {case_id!r}") from None


def default_params_grid(case: IdentityCase,
                        alpha_grid: Sequence[float] = ALPHA_GRID,
                        a_grid: Sequence[float] = A_GRID,
                        theta_grid: Sequence[float] = THETA_GRID,
                        gamma_grid: Sequence[float] = GAMMA_GRID) -> list[Params]:
    """Parameter records for one case, in canonical (sorted) order."""
    if case.param_kind == "fixed":
        return [dict(case.fixed_params)]
    grids = {"alpha": alpha_grid, "a": a_grid, "theta": theta_grid,
             "gamma": gamma_grid}
    names = PARAM_NAMES[case.param_kind]
    return [dict(zip(names, values))
            for values in itertools.product(*(sorted(grids[n]) for n in names))]


def case_params(case: IdentityCase, params: Params) -> Params:
    """``params`` laid over the case's fixed parameters.

    Raises DomainError when the merged point lies outside the case domain.
    """
    merged = case.fixed_params.copy()  # dict() of a read-only mapping is slower
    merged.update(params)
    if not case.domain(merged):
        raise DomainError(f"{case.id}: parameters {merged} are outside the case domain")
    return merged


def check_tolerances(rtol: float, atol: float) -> None:
    """Raise DomainError unless rtol and atol are positive and finite."""
    if not (0.0 < rtol < math.inf and 0.0 < atol < math.inf):
        raise DomainError(f"rtol and atol must be positive and finite, "
                          f"got {rtol} and {atol}")


def evaluate_lhs(case: IdentityCase, params: Params, tolerance: float
                 ) -> tuple[float | complex, QuadratureResult]:
    """Quadrature side of one case at one parameter point, in one pass
    whether the integrand is real or complex, within the absolute
    ``tolerance``: one budget for the whole integral, which the quadrature
    splits between its parts (``integrate_endpoint_oscillatory``), which
    integrates the case's kernel as it stands.  A two-ended path, folded onto
    one half, gets half the budget.  A conjugate-even case integrates only
    (0, pi/2) and returns twice its real part, with twice its estimate."""
    params = case_params(case, params)
    period = 2.0 * PI * params["alpha"] / case.freq if case.freq else None
    res = integrate_endpoint_oscillatory(
        case.integrand(params), period, tolerance=tolerance / len(case.osc_ends),
        pinches=case.pinch_quarters, points=case.interior_points(params),
        tail_points=case.tail_points(params))
    if case.conjugate_even:
        res = res._replace(value=complex(2.0 * res.value.real, 0.0),
                           error_estimate=2.0 * res.error_estimate)
    return res.value, res


def lhs_key(case: IdentityCase, params: Params) -> tuple:
    """What ``evaluate_lhs`` reads of the case and of one in-domain point,
    and nothing else, so points with equal keys (and equal tolerances)
    share one integral.  The interior points enter by value: equal lambdas
    of different cases count as one.  Raises DomainError like
    ``case_params``."""
    merged = case_params(case, params)
    return (case.integrand, case.osc_ends, case.freq, case.pinch_quarters,
            case.conjugate_even, case.tail_points, tuple(sorted(merged.items())),
            tuple(case.interior_points(merged)))


def evaluate_rhs(case: IdentityCase, params: Params) -> float | complex:
    """Closed-form side of one case at one parameter point."""
    return case.rhs(case_params(case, params))


_NUMERIC_ERRORS = (AccuracyError, SolverError, ArithmeticError)
# and, once the closed form has admitted the point, a ValueError of the
# integral: at huge alpha a budget or period that overflowed to inf
_LHS_ERRORS = (*_NUMERIC_ERRORS, ValueError)


def _error_row(case: IdentityCase, params: Params, evaluations: int,
               exc: Exception) -> VerificationRow:
    detail = (str(exc) if isinstance(exc, (AccuracyError, SolverError))
              else f"{type(exc).__name__}: {exc}")
    return VerificationRow(case.id, params, None, None, None, None, "error",
                           evaluations, detail)


def verify_case(case: IdentityCase, params: Params,
                rtol: float = 1e-8, atol: float = 1e-10,
                shared: dict | None = None) -> VerificationRow:
    """Check one (case, parameter) pair; numerics failures become error rows.

    The lhs is asked for the row tolerance max(atol, rtol |rhs|), the one
    absolute budget of its integral.  A row passes when both |lhs - rhs|
    and the quadrature's error estimate are within it.  It fails when
    |lhs - rhs| exceeds the tolerance and, if the estimate exceeds it too,
    the tolerance plus the estimate; any other row is an error row whose
    detail names the estimate and the tolerance.  A ValueError of the
    integral at a point the closed form admitted (at huge alpha, a budget or
    period that overflowed, or a kernel's log of an underflowed 0) is an
    error row too; an out-of-domain point still raises.

    Rows whose points share one ``lhs_key`` may pass one ``shared`` dict.
    The first of them to need the integral computes it and leaves its
    outcome there; later rows reuse it with 0 evaluations, as the value
    (detail "lhs of <case id>") or as the same error.
    """
    check_tolerances(rtol, atol)
    try:
        rhs = evaluate_rhs(case, params)
    except _NUMERIC_ERRORS as exc:
        return _error_row(case, params, getattr(exc, "evaluations", 0), exc)
    tolerance = max(atol, rtol * abs(rhs))
    if shared:
        lhs, estimate, failure, owner = shared["lhs"]
        evaluations, detail = 0, f"lhs of {owner}"
    else:
        try:
            lhs, cost = evaluate_lhs(case, params, tolerance)
            estimate, failure = cost.error_estimate, None
            evaluations, detail = cost.evaluations, ""
        except _LHS_ERRORS as exc:
            lhs, estimate, failure = None, None, exc
            evaluations = getattr(exc, "evaluations", 0)
        if shared is not None:
            shared["lhs"] = (lhs, estimate, failure, case.id)
    if failure is not None:
        return _error_row(case, params, evaluations, failure)
    abs_err = abs(lhs - rhs)
    rel_err = abs_err / abs(rhs) if rhs != 0 else abs_err
    if tolerance < estimate and abs_err <= tolerance + estimate:
        # the estimate can show neither that the row holds nor that it does
        # not: neither a pass nor a fail
        reason = f"error estimate {estimate:.3e} above the tolerance {tolerance:.3e}"
        return VerificationRow(case.id, params, None, None, None, None, "error",
                               evaluations, f"{detail}: {reason}" if detail else reason)
    return VerificationRow(case.id, params, lhs, rhs, abs_err, rel_err,
                           "pass" if abs_err <= tolerance else "fail",
                           evaluations, detail)


# ---------------------------------------------------------------------------
# contour route

def contour_path_points(n_points: int) -> list[tuple[float, float, float]]:
    """Samples (x, Re z, Im z) of the path z = log(2 cos x) + ix.

    Points are interior (the real part diverges at both ends); x = 0 with
    Re z = ln 2 is included whenever ``n_points`` is odd.
    """
    if n_points < 64:
        raise DomainError(f"need n_points >= 64, got {n_points}")
    out = []
    for i in range(n_points):
        x = -PI / 2 + PI * (i + 1) / (n_points + 1)
        out.append((x, math.log(2.0 * math.cos(x)), x))
    return out


def contour_trace(alpha: float) -> complex:
    """The closed-path integral of 1/(8i (1 - e^-z) cos(z/2 alpha)): the
    quadrature side of DISC-CONTOUR, parametrized by z(x) = log(2 cos x) + ix
    with dz = (i - tan x) dx, within an absolute 1e-10."""
    return evaluate_lhs(case_by_id("DISC-CONTOUR"), {"alpha": alpha}, 1e-10)[0]

