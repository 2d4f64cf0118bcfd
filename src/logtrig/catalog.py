"""The identity catalog: each case pairs a quadrature side with a closed form.

A case owns its integrand (as a function of x and the log-trig value w, so
the endpoint transform can feed exact pairs), the interval and endpoint
maps, a domain predicate, and the closed-form evaluator.  Denominators of
the form cosh(u) +/- cos(v) are computed as 2*(sinh(u/2)^2 + cos/sin(v/2)^2),
which cannot lose precision or hit an accidental zero near the tail spikes.

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
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .elliptic import EllipticParams
from .errors import AccuracyError, DomainError, SolverError
from .quadrature import QuadratureResult, integrate_endpoint_oscillatory
from .series import (gamma_fn, lambert_plain, cn_imag_third,
                     product_one_minus, product_one_plus,
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
    "evaluate_rhs",
    "verify_case",
    "contour_trace",
    "contour_path_points",
    "residue_count_appa",
    "ALPHA_GRID",
    "A_GRID",
    "THETA_GRID",
    "GAMMA_GRID",
    "PARAM_NAMES",
]

LN2 = math.log(2.0)
PI = math.pi
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


@dataclass(frozen=True)
class IdentityCase:
    id: str
    description: str
    interval: tuple[float, float]
    param_kind: str                # a key of PARAM_NAMES, or "fixed"
    map_kind: str                  # "log-cos" | "log-sin" | "log-sin-half"
    freq: float                    # oscillation multiplier c; 0 = decay only
    osc_ends: tuple[str, ...]      # which interval ends need the transform
    integrand: Callable[[Params], Callable[[float, float], float | complex]]
    rhs: Callable[[Params], float | complex]
    domain: Callable[[Params], bool]
    complex_valued: bool = False   # descriptive; complex values take one pass
    interior_points: Callable[[Params], tuple[float, ...]] = lambda p: ()  # fixed in x
    # t-positions of narrow features; the engine cuts at them on both
    # sides of the tail split
    tail_points: Callable[[Params], Callable | None] = lambda p: None
    fixed_params: Params = field(default_factory=dict)


@dataclass(frozen=True)
class VerificationRow:
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
# numerically stable building blocks

def cosh_minus_cos(u: float, v: float) -> float:
    """cosh(u) - cos(v) without cancellation near u = 0, v = pi (mod 2 pi)."""
    return 2.0 * (math.sinh(0.5 * u) ** 2 + math.sin(0.5 * v) ** 2)


def cosh_plus_cos(u: float, v: float) -> float:
    """cosh(u) + cos(v) as a sum of squares."""
    return 2.0 * (math.sinh(0.5 * u) ** 2 + math.cos(0.5 * v) ** 2)


def _sine_kernel_s(a: float) -> float:
    """1/a^2 + e^b - e^b/(e^b - 1)^2 with b = min(a, ln 2)."""
    b = min(a, LN2)
    eb = math.exp(b)
    return 1.0 / (a * a) + eb - eb / math.expm1(b) ** 2


def _not_near_integer(value: float, lowest: int, step: int) -> bool:
    """True when value is not within 1e-9 of lowest, lowest+step, ..."""
    if value < lowest - 0.5:
        return True
    n = max(lowest, lowest + step * round((value - lowest) / step))
    return abs(value - n) > 1e-9


def _a_ok(a: float) -> bool:
    return abs(a) > 1e-9 and abs(a - LN2) > 1e-9


def _denominator_dip(a: float) -> tuple[float, ...]:
    """x > 0 where log(2 cos x) = a, the closest approach of ix + w - a to 0."""
    if a >= LN2:
        return ()
    return (math.acos(0.5 * math.exp(a)),)


# ---------------------------------------------------------------------------
# case table

def _elliptic(p: Params) -> EllipticParams:
    return modulus_from_alpha(p["alpha"])


def _intro1_f(p: Params):
    a = p["a"]
    return lambda x, w: math.log(x * x + (w - a) ** 2)


def _intro2_f(p: Params):
    a = p["a"]
    return lambda x, w: math.log(x * x + (w - a) ** 2) * math.cos(2.0 * x)


def _intro3_f(p: Params):
    a = p["a"]
    return lambda x, w: x * math.sin(2.0 * x) / (x * x + (w - a) ** 2)


def _intro4_f(p: Params):
    a, g = p["a"], p["gamma"]

    def f(x, w):
        weight = math.exp(g * w) * complex(math.cos(g * x), math.sin(g * x))
        return weight / complex(w - a, x)
    return f


def _intro4_rhs(p: Params) -> complex:
    a, g = p["a"], p["gamma"]
    value = -PI / a
    if a < LN2:
        value += PI * math.exp((g + 1.0) * a) / math.expm1(a)
    return complex(value, 0.0)


def _t1a_f(p: Params):
    al = p["alpha"]
    return lambda x, w: math.log(cosh_minus_cos(x / al, w / al))


def _t1b_f(p: Params):
    al = p["alpha"]
    return lambda x, w: math.log(cosh_plus_cos(x / al, w / al))


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
    prod = product_one_minus(_elliptic(p)).direct
    return -0.5 * PI * math.log(2.0 * al * al) - PI * math.log(prod)


def _t1pb_rhs(p: Params) -> float:
    prod = product_one_plus(_elliptic(p)).direct
    return 0.5 * PI * LN2 + PI * math.log(prod)


def _t2_f(p: Params):
    al = p["alpha"]
    return lambda x, w: (math.cosh(0.5 * x / al) * math.cos(0.5 * w / al)
                         / cosh_plus_cos(x / al, w / al))


def _t2_rhs(p: Params) -> float:
    return PI * (p["alpha"] + 2.0) / 8.0 - p["alpha"] * _elliptic(p).big_k / 4.0


def _sine_f(p: Params):
    a = p.get("a", 0.0)
    return lambda x, w: 1j * math.sin(2.0 * x) / complex(w - a, x)


def _t3a_f(p: Params):
    al = p["alpha"]
    return lambda x, w: (math.sin(2.0 * x) * math.sinh(x / al)
                         / cosh_minus_cos(x / al, w / al))


def _t3b_f(p: Params):
    al = p["alpha"]
    return lambda x, w: (math.sin(2.0 * x) * math.sinh(x / al)
                         / cosh_plus_cos(x / al, w / al))


def _ell_term_a(ep: EllipticParams) -> float:
    return ep.big_e - (2.0 - ep.k ** 2) / 3.0 * ep.big_k


def _t3a_rhs(p: Params) -> float:
    al = p["alpha"]
    ep = _elliptic(p)
    return (13.0 * PI * al / 48.0 + PI / (24.0 * al)
            + PI * al / (4.0 * math.tanh(PI * al))
            + al / (4.0 * PI) * _ell_term_a(ep) * ep.big_k)


def _t3b_rhs(p: Params) -> float:
    al = p["alpha"]
    ep = _elliptic(p)
    return (PI / (8.0 * al) + PI * al / (4.0 * math.sinh(PI * al))
            + al / (4.0 * PI) * (ep.big_e - ep.big_k) * ep.big_k)


def _cos_f(p: Params):
    a = p["a"]
    return lambda x, w: math.cos(2.0 * x) / complex(w - a, x)


def _cos_rhs(p: Params) -> complex:
    a = p["a"]
    value = -0.5 * PI * _sine_kernel_s(a)
    if a < LN2:
        value += PI * math.exp(a)
    return complex(value, 0.0)


def _t4a_f(p: Params):
    al = p["alpha"]
    return lambda x, w: (math.cos(2.0 * x) * math.sin(w / al)
                         / cosh_minus_cos(x / al, w / al))


def _t4b_f(p: Params):
    al = p["alpha"]
    return lambda x, w: (math.cos(2.0 * x) * math.sin(w / al)
                         / cosh_plus_cos(x / al, w / al))


def _t4a_rhs(p: Params) -> float:
    al = p["alpha"]
    ep = _elliptic(p)
    return (11.0 * PI * al / 48.0 - PI / (24.0 * al)
            + PI * al / (4.0 * math.tanh(PI * al))
            - al / (4.0 * PI) * _ell_term_a(ep) * ep.big_k)


def _t4b_rhs(p: Params) -> float:
    al = p["alpha"]
    ep = _elliptic(p)
    return (PI / (8.0 * al) - PI * al / (4.0 * math.sinh(PI * al))
            + al / (4.0 * PI) * (ep.big_e - ep.big_k) * ep.big_k)


def _t4pa_rhs(p: Params) -> float:
    al = p["alpha"]
    s = sinh2_sum_integer(_elliptic(p)).direct
    return (11.0 * PI * al / 24.0 - PI / (24.0 * al)
            + PI * al / (2.0 * math.expm1(2.0 * PI * al)) + PI * al / 8.0 * s)


def _t4pb_rhs(p: Params) -> float:
    al = p["alpha"]
    s = sinh2_sum_odd(_elliptic(p)).direct
    return (PI / (8.0 * al) - PI * al / (4.0 * math.sinh(PI * al))
            - PI * al / 8.0 * s)


def _t5a_f(p: Params):
    al = p["alpha"]
    return lambda x, w: (math.sinh((4.0 * x - PI) / al)
                         / cosh_minus_cos((4.0 * x - PI) / al, 4.0 * w / al))


def _t5b_f(p: Params):
    al = p["alpha"]
    return lambda x, w: (math.sinh((4.0 * x - PI) / al)
                         / cosh_plus_cos((4.0 * x - PI) / al, 4.0 * w / al))


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
    al = p["alpha"]
    return lambda x, w: (math.sinh((PI - 6.0 * x) / (2.0 * al))
                         / cosh_plus_cos((PI - 6.0 * x) / (2.0 * al), 3.0 * w / al))


def _t6_rhs(p: Params) -> float:
    al = p["alpha"]
    ep = _elliptic(p)
    return (al * ep.k * ep.big_k / SQRT3 * cn_imag_third(ep)
            - PI * math.tanh(0.5 * PI / al))


def _t7_f(p: Params):
    al = p["alpha"]

    def f(x, w):
        return (math.atan(math.tanh((PI - 3.0 * x) / (4.0 * al))
                          * math.tan(1.5 * w / al)) * math.cos(x))
    return f


def _t7_rhs(p: Params) -> float:
    al = p["alpha"]
    ep = _elliptic(p)
    return (1.5 * PI / al * math.tanh(0.5 * PI / al)
            - PI * SQRT3 / (4.0 * math.sinh(PI * al / 3.0))
            - SQRT3 * ep.k * ep.big_k / 2.0 * cn_imag_third(ep))


def _theta2_f(p: Params):
    a, th = p["a"], p["theta"]
    return lambda x, w: math.cos(2.0 * x) / complex(w - a, x + th)


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
    return lambda x, w: 1.0 / complex(w - a, x + th)


def _appa_rhs(p: Params) -> complex:
    a, th = p["a"], p["theta"]
    value = PI / complex(-a, th)
    if a < math.log(2.0 * math.cos(th)):
        value += PI / (1.0 - cmath.exp(complex(-a, th)))
    return value


def _contour_f(p: Params):
    al = p["alpha"]

    def f(x, w):
        z = complex(w, x)
        num = complex(-math.tan(x), 1.0)
        den = (1.0 - cmath.exp(-z)) * cmath.cos(z / (2.0 * al))
        return num / den / 8j
    return f


def _l1_f(p: Params):
    al = p["alpha"]
    return lambda x, w: math.sin(w / al) / cosh_minus_cos(x / al, w / al)


def _l2_f(p: Params):
    al = p["alpha"]
    return lambda x, w: math.sin(w / al) / cosh_plus_cos(x / al, w / al)


def _p1_f(p: Params):
    a = p["a"]
    return lambda x, w: x / (x * x + (w + a) ** 2)


def _p2_f(p: Params):
    a = p["a"]
    return lambda x, w: (w + a) / (x * x + (w + a) ** 2)


def _p4_f(p: Params):
    al = p["alpha"]
    return lambda x, w: math.sinh(x / al) / cosh_plus_cos(x / al, w / al)


def _p34_tail_ladder(p: Params):
    """Geometric cuts around the cos = -1 pinch centers in the tail.

    The pinch at t_m = (2m+1) pi alpha has t-width exp(-t_m)/2, far below
    what panel-scale nodes can see, while its mass ~2 pi alpha exp(-t_m)/2
    can exceed the tolerance; the ladder guarantees some panel is narrow
    enough that the bump registers in the error estimate.
    """
    al = p["alpha"]

    def ladder(lo: float, hi: float) -> list[float]:
        cuts: list[float] = []
        m = 0
        while True:
            tm = PI * al * (2 * m + 1)
            if tm > hi + 1e-9:
                break
            if tm > lo - 1e-9:
                d = 0.25 * math.exp(-tm)
                while d < hi - lo:
                    for c in (tm - d, tm + d):
                        if lo < c < hi:
                            cuts.append(c)
                    d *= 8.0
            m += 1
        return cuts
    return ladder


def _im_f(p: Params):
    # sinh(s)/(cosh(s) - cos(v)) with s = w/alpha and v = x/alpha, both sides
    # scaled by 2 e^{-|s|}: nothing overflows however far the tail runs
    al = p["alpha"]

    def f(x: float, w: float) -> float:
        s = abs(w) / al
        return math.copysign(-math.expm1(-2.0 * s), w) / (
            math.expm1(-s) ** 2 + 4.0 * math.exp(-s) * math.sin(0.5 * x / al) ** 2)

    return f


def _grid_dip_points(p: Params) -> tuple[float, ...]:
    pts = _denominator_dip(p["a"])
    return pts + tuple(-x for x in pts)


def _theta_pole_points(p: Params) -> tuple[float, ...]:
    return (-p["theta"],)


_CASES: list[IdentityCase] = []


def _add(case: IdentityCase) -> None:
    _CASES.append(case)


_add(IdentityCase(
    id="INTRO-1", description="log of x^2 + (log(2 cos x) - a)^2 on (0, pi/2)",
    interval=(0.0, PI / 2), param_kind="a", map_kind="log-cos", freq=0.0,
    osc_ends=("upper",), integrand=_intro1_f,
    rhs=lambda p: PI * math.log(p["a"] / math.expm1(min(p["a"], LN2))),
    domain=lambda p: _a_ok(p["a"]),
    interior_points=lambda p: _denominator_dip(p["a"])))

_add(IdentityCase(
    id="INTRO-2", description="same log kernel weighted by cos 2x",
    interval=(0.0, PI / 2), param_kind="a", map_kind="log-cos", freq=0.0,
    osc_ends=("upper",), integrand=_intro2_f,
    rhs=lambda p: 0.5 * PI * (1.0 - 1.0 / p["a"] - math.exp(min(p["a"], LN2))
                              + 1.0 / math.expm1(min(p["a"], LN2))),
    domain=lambda p: _a_ok(p["a"]),
    interior_points=lambda p: _denominator_dip(p["a"])))

_add(IdentityCase(
    id="INTRO-3", description="x sin 2x over the squared-distance kernel",
    interval=(0.0, PI / 2), param_kind="a", map_kind="log-cos", freq=0.0,
    osc_ends=("upper",), integrand=_intro3_f,
    rhs=lambda p: 0.25 * PI * _sine_kernel_s(p["a"]),
    domain=lambda p: _a_ok(p["a"]),
    interior_points=lambda p: _denominator_dip(p["a"])))

_add(IdentityCase(
    id="INTRO-4", description="binomial weight (1+e^{2ix})^gamma over the pole kernel",
    interval=(-PI / 2, PI / 2), param_kind="a-gamma", map_kind="log-cos",
    freq=0.0, osc_ends=("lower", "upper"), integrand=_intro4_f,
    rhs=_intro4_rhs, complex_valued=True,
    domain=lambda p: _a_ok(p["a"]) and p["gamma"] >= 0.0,
    interior_points=_grid_dip_points))

_add(IdentityCase(
    id="T1-A", description="log(cosh(x/a) - cos(log(2cos x)/a)) vs eta-type closed form",
    interval=(0.0, PI / 2), param_kind="alpha", map_kind="log-cos", freq=1.0,
    osc_ends=("upper",), integrand=_t1a_f, rhs=_t1a_rhs,
    domain=lambda p: p["alpha"] > LN2 / (2.0 * PI)))

_add(IdentityCase(
    id="T1-B", description="log(cosh + cos) vs algebraic modulus closed form",
    interval=(0.0, PI / 2), param_kind="alpha", map_kind="log-cos", freq=1.0,
    osc_ends=("upper",), integrand=_t1b_f, rhs=_t1b_rhs,
    domain=lambda p: p["alpha"] > LN2 / PI))

_add(IdentityCase(
    id="T1-PA", description="log(cosh - cos) vs direct q-product form",
    interval=(0.0, PI / 2), param_kind="alpha", map_kind="log-cos", freq=1.0,
    osc_ends=("upper",), integrand=_t1a_f, rhs=_t1pa_rhs,
    domain=lambda p: p["alpha"] > LN2 / (2.0 * PI)))

_add(IdentityCase(
    id="T1-PB", description="log(cosh + cos) vs direct q-product form",
    interval=(0.0, PI / 2), param_kind="alpha", map_kind="log-cos", freq=1.0,
    osc_ends=("upper",), integrand=_t1b_f, rhs=_t1pb_rhs,
    domain=lambda p: p["alpha"] > LN2 / PI))

_add(IdentityCase(
    id="T2", description="half-frequency cosh cos kernel vs pi(alpha+2)/8 - alpha K/4",
    interval=(0.0, PI / 2), param_kind="alpha", map_kind="log-cos", freq=0.5,
    osc_ends=("upper",), integrand=_t2_f, rhs=_t2_rhs,
    domain=lambda p: p["alpha"] > LN2 / PI))

_add(IdentityCase(
    id="SINE", description="i times the sin 2x pole-kernel integral (parity-real)",
    interval=(-PI / 2, PI / 2), param_kind="a", map_kind="log-cos", freq=0.0,
    osc_ends=("lower", "upper"), integrand=_sine_f,
    rhs=lambda p: complex(0.5 * PI * _sine_kernel_s(p["a"]), 0.0),
    complex_valued=True, domain=lambda p: _a_ok(p["a"]),
    interior_points=_grid_dip_points))

_add(IdentityCase(
    id="SINE0", description="the a = 0 sin 2x pole-kernel value 13 pi/24",
    interval=(-PI / 2, PI / 2), param_kind="fixed", map_kind="log-cos",
    freq=0.0, osc_ends=("lower", "upper"), integrand=_sine_f,
    rhs=lambda p: complex(13.0 * PI / 24.0, 0.0), complex_valued=True,
    domain=lambda p: True, fixed_params={}))

_add(IdentityCase(
    id="T3-A", description="sin 2x sinh kernel over cosh - cos",
    interval=(0.0, PI / 2), param_kind="alpha", map_kind="log-cos", freq=1.0,
    osc_ends=("upper",), integrand=_t3a_f, rhs=_t3a_rhs,
    domain=lambda p: p["alpha"] > LN2 / (2.0 * PI)))

_add(IdentityCase(
    id="T3-B", description="sin 2x sinh kernel over cosh + cos",
    interval=(0.0, PI / 2), param_kind="alpha", map_kind="log-cos", freq=1.0,
    osc_ends=("upper",), integrand=_t3b_f, rhs=_t3b_rhs,
    domain=lambda p: p["alpha"] > LN2 / PI))

_add(IdentityCase(
    id="COS", description="cos 2x pole-kernel integral with Heaviside switch",
    interval=(-PI / 2, PI / 2), param_kind="a", map_kind="log-cos", freq=0.0,
    osc_ends=("lower", "upper"), integrand=_cos_f, rhs=_cos_rhs,
    complex_valued=True, domain=lambda p: _a_ok(p["a"]),
    interior_points=_grid_dip_points))

_add(IdentityCase(
    id="T4-A", description="cos 2x sin(log-term) kernel over cosh - cos",
    interval=(0.0, PI / 2), param_kind="alpha", map_kind="log-cos", freq=1.0,
    osc_ends=("upper",), integrand=_t4a_f, rhs=_t4a_rhs,
    domain=lambda p: p["alpha"] > LN2 / (2.0 * PI)))

_add(IdentityCase(
    id="T4-B", description="cos 2x sin(log-term) kernel over cosh + cos",
    interval=(0.0, PI / 2), param_kind="alpha", map_kind="log-cos", freq=1.0,
    osc_ends=("upper",), integrand=_t4b_f, rhs=_t4b_rhs,
    domain=lambda p: p["alpha"] > LN2 / PI))

_add(IdentityCase(
    id="T4-PA", description="cos 2x sin kernel vs direct sinh^-2 sum form",
    interval=(0.0, PI / 2), param_kind="alpha", map_kind="log-cos", freq=1.0,
    osc_ends=("upper",), integrand=_t4a_f, rhs=_t4pa_rhs,
    domain=lambda p: p["alpha"] > LN2 / (2.0 * PI)))

_add(IdentityCase(
    id="T4-PB", description="cos 2x sin kernel vs direct odd sinh^-2 sum form",
    interval=(0.0, PI / 2), param_kind="alpha", map_kind="log-cos", freq=1.0,
    osc_ends=("upper",), integrand=_t4b_f, rhs=_t4pb_rhs,
    domain=lambda p: p["alpha"] > LN2 / PI))

_add(IdentityCase(
    id="S3-T5A", description="sinh((4x-pi)/a) over cosh - cos(4 log(2sin x)/a) on (0, pi)",
    interval=(0.0, PI), param_kind="alpha", map_kind="log-sin", freq=4.0,
    osc_ends=("lower", "upper"), integrand=_t5a_f, rhs=_t5a_rhs,
    domain=lambda p: p["alpha"] > LN2 / PI,
    interior_points=lambda p: (PI / 4.0,)))

_add(IdentityCase(
    id="S3-T5B", description="same kernel over cosh + cos, sqrt(2+2/k) closed form",
    interval=(0.0, PI), param_kind="alpha", map_kind="log-sin", freq=4.0,
    osc_ends=("lower", "upper"), integrand=_t5b_f, rhs=_t5b_rhs,
    domain=lambda p: p["alpha"] > 2.0 * LN2 / PI,
    interior_points=lambda p: (PI / 4.0,)))

_add(IdentityCase(
    id="S3-T6", description="sinh((pi-6x)/2a) kernel, cn(i K'/3, k) closed form",
    interval=(0.0, PI), param_kind="alpha", map_kind="log-sin", freq=3.0,
    osc_ends=("lower", "upper"), integrand=_t6_f, rhs=_t6_rhs,
    domain=lambda p: p["alpha"] > 0.0,
    interior_points=lambda p: (PI / 6.0,)))

_add(IdentityCase(
    id="S3-T7", description="arctan(tanh/cot) kernel weighted by cos x on (0, 2 pi)",
    interval=(0.0, 2.0 * PI), param_kind="alpha", map_kind="log-sin-half",
    freq=1.5, osc_ends=("lower", "upper"), integrand=_t7_f, rhs=_t7_rhs,
    domain=lambda p: p["alpha"] > 3.0 * LN2 / PI))

_add(IdentityCase(
    id="THETA2", description="cos 2x kernel with shifted pole i(x+theta) - a",
    interval=(-PI / 2, PI / 2), param_kind="a-theta", map_kind="log-cos",
    freq=0.0, osc_ends=("lower", "upper"), integrand=_theta2_f,
    rhs=_theta2_rhs, complex_valued=True,
    domain=lambda p: abs(p["theta"]) < PI / 2
    and abs(p["a"] - math.log(2.0 * math.cos(p["theta"]))) > 1e-9,
    interior_points=_theta_pole_points))

_add(IdentityCase(
    id="EX-1", description="log(cosh + cos) at alpha = sqrt(3), gamma-free value",
    interval=(0.0, PI / 2), param_kind="fixed", map_kind="log-cos", freq=1.0,
    osc_ends=("upper",), integrand=_t1b_f,
    rhs=lambda p: (PI * PI / (8.0 * SQRT3) - 0.25 * PI * math.log(1.0 + SQRT3)
                   + 13.0 * PI / 24.0 * LN2),
    domain=lambda p: True, fixed_params={"alpha": SQRT3}))

_add(IdentityCase(
    id="EX-2", description="half-frequency kernel at alpha = 2, Gamma(1/4) value",
    interval=(0.0, PI / 2), param_kind="fixed", map_kind="log-cos", freq=0.5,
    osc_ends=("upper",), integrand=_t2_f,
    rhs=lambda p: (0.5 * PI - (math.sqrt(2.0) + 1.0) * gamma_fn(0.25) ** 2
                   / (16.0 * math.sqrt(2.0 * PI))),
    domain=lambda p: True, fixed_params={"alpha": 2.0}))

_add(IdentityCase(
    id="EX-3", description="cn(i K'/3) kernel at alpha = sqrt(3), Gamma(1/3) value",
    interval=(0.0, PI), param_kind="fixed", map_kind="log-sin", freq=3.0,
    osc_ends=("lower", "upper"), integrand=_t6_f,
    rhs=lambda p: (gamma_fn(1.0 / 3.0) ** 3 / (2.0 ** (10.0 / 3.0) * PI)
                   - PI * math.tanh(0.5 * PI / SQRT3)),
    domain=lambda p: True, fixed_params={"alpha": SQRT3},
    interior_points=lambda p: (PI / 6.0,)))

_add(IdentityCase(
    id="DISC-CONTOUR", description="parametrized contour integral of the half-frequency kernel",
    interval=(-PI / 2, PI / 2), param_kind="alpha", map_kind="log-cos",
    freq=0.5, osc_ends=("lower", "upper"), integrand=_contour_f, rhs=_t2_rhs,
    complex_valued=True, domain=lambda p: p["alpha"] > LN2 / PI))

_add(IdentityCase(
    id="DISC-L1", description="sin(log-term) over cosh - cos vs plain Lambert sum",
    interval=(0.0, PI / 2), param_kind="alpha", map_kind="log-cos", freq=1.0,
    osc_ends=("upper",), integrand=_l1_f,
    rhs=lambda p: 0.5 * PI * p["alpha"]
    - PI * p["alpha"] * lambert_plain(p["alpha"]).direct,
    domain=lambda p: p["alpha"] > 0.0
    and _not_near_integer(LN2 / (2.0 * PI * p["alpha"]), 1, 1)))

_add(IdentityCase(
    id="DISC-L2", description="sin(log-term) over cosh + cos vs odd Lambert sum",
    interval=(0.0, PI / 2), param_kind="alpha", map_kind="log-cos", freq=1.0,
    osc_ends=("upper",), integrand=_l2_f,
    rhs=lambda p: PI * p["alpha"] * lambert_plain(p["alpha"], odd=True).direct,
    domain=lambda p: p["alpha"] > 0.0
    and _not_near_integer(LN2 / (PI * p["alpha"]), 1, 2)))

_add(IdentityCase(
    id="DISC-P1", description="x over squared-distance kernel of log(2 e^a sin x)",
    interval=(0.0, PI), param_kind="a", map_kind="log-sin", freq=0.0,
    osc_ends=("lower", "upper"), integrand=_p1_f,
    rhs=lambda p: 2.0 * PI ** 2 / (PI ** 2 + 4.0 * p["a"] ** 2),
    domain=lambda p: True))

_add(IdentityCase(
    id="DISC-P2", description="log(2 e^a sin x) over its squared-distance kernel",
    interval=(0.0, PI), param_kind="a", map_kind="log-sin", freq=0.0,
    osc_ends=("lower", "upper"), integrand=_p2_f,
    rhs=lambda p: 4.0 * PI * p["a"] / (PI ** 2 + 4.0 * p["a"] ** 2),
    domain=lambda p: True))

# freq 2 makes the period pi alpha, so the cos = -1 pinch points of these two
# kernels, at t = (2m+1) pi alpha, fall on the quarter-period lattice that the
# engine cuts at on both sides of the tail split; the ladder adds narrower cuts.
_add(IdentityCase(
    id="DISC-P3", description="sin(log-term)/(cosh + cos) on (0, pi), zero value",
    interval=(0.0, PI), param_kind="alpha", map_kind="log-sin", freq=2.0,
    osc_ends=("lower", "upper"), integrand=_l2_f, rhs=lambda p: 0.0,
    domain=lambda p: p["alpha"] > 0.0, tail_points=_p34_tail_ladder))

_add(IdentityCase(
    id="DISC-P4", description="sinh(x/a)/(cosh + cos) on (0, pi), tanh closed form",
    interval=(0.0, PI), param_kind="alpha", map_kind="log-sin", freq=2.0,
    osc_ends=("lower", "upper"), integrand=_p4_f,
    rhs=lambda p: PI * math.tanh(0.25 * PI / p["alpha"]),
    domain=lambda p: p["alpha"] > 0.0, tail_points=_p34_tail_ladder))

_add(IdentityCase(
    id="DISC-IM", description="sinh/cosh roles of x and the log term exchanged",
    interval=(0.0, PI / 2), param_kind="alpha", map_kind="log-cos", freq=0.0,
    osc_ends=("upper",), integrand=_im_f,
    rhs=lambda p: 0.5 * PI * p["alpha"],
    domain=lambda p: p["alpha"] > 0.0
    and _not_near_integer(1.0 / (6.0 * p["alpha"]), 1, 1),
    interior_points=lambda p: (PI / 3.0,)))

_add(IdentityCase(
    id="APPA", description="pole kernel 1/(i(x+theta) - a + log(2cos x))",
    interval=(-PI / 2, PI / 2), param_kind="a-theta", map_kind="log-cos",
    freq=0.0, osc_ends=("lower", "upper"), integrand=_appa_f, rhs=_appa_rhs,
    complex_valued=True,
    domain=lambda p: abs(p["theta"]) < PI / 2
    and abs(p["a"] - math.log(2.0 * math.cos(p["theta"]))) > 1e-9,
    interior_points=_theta_pole_points))

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
    merged = dict(case.fixed_params)
    merged.update(params)
    if not case.domain(merged):
        raise DomainError(f"{case.id}: parameters {merged} are outside the case domain")
    return merged


def check_tolerances(rtol: float, atol: float) -> None:
    """Raise DomainError unless rtol and atol are positive and finite."""
    if not (0.0 < rtol < math.inf and 0.0 < atol < math.inf):
        raise DomainError(f"rtol and atol must be positive and finite, "
                          f"got {rtol} and {atol}")


def _integrate(case: IdentityCase, params: Params, points: Sequence[float],
               tol: float, atol: float) -> QuadratureResult:
    """Quadrature of the case integrand at merged ``params``, in one pass
    whether the integrand is real or complex."""
    a, b = case.interval
    period = 2.0 * PI * params["alpha"] / case.freq if case.freq else None
    return integrate_endpoint_oscillatory(
        case.integrand(params), a, b, case.map_kind, case.osc_ends, period,
        tol=tol, atol=atol, points=points, tail_points=case.tail_points(params))


def evaluate_lhs(case: IdentityCase, params: Params,
                 rtol: float = 1e-8, atol: float = 1e-10
                 ) -> tuple[float | complex, QuadratureResult]:
    """Quadrature side of one case at one parameter point."""
    params = case_params(case, params)
    res = _integrate(case, params, case.interior_points(params),
                     max(rtol * 0.02, 5e-13), max(atol * 0.02, 5e-15))
    return res.value, res


def evaluate_rhs(case: IdentityCase, params: Params) -> float | complex:
    """Closed-form side of one case at one parameter point."""
    return case.rhs(case_params(case, params))


def verify_case(case: IdentityCase, params: Params,
                rtol: float = 1e-8, atol: float = 1e-10) -> VerificationRow:
    """Check one (case, parameter) pair; numerics failures become error rows."""
    check_tolerances(rtol, atol)
    case_params(case, params)
    try:
        rhs = evaluate_rhs(case, params)
        lhs, cost = evaluate_lhs(case, params, rtol=rtol, atol=atol)
    except (AccuracyError, SolverError) as exc:
        return VerificationRow(case.id, params, None, None, None, None,
                               "error", getattr(exc, "evaluations", 0), str(exc))
    except ArithmeticError as exc:
        return VerificationRow(case.id, params, None, None, None, None,
                               "error", 0, f"{type(exc).__name__}: {exc}")
    abs_err = abs(lhs - rhs)
    rel_err = abs_err / abs(rhs) if rhs != 0 else abs_err
    ok = abs_err <= max(atol, rtol * abs(rhs))
    return VerificationRow(case.id, params, lhs, rhs, abs_err, rel_err,
                           "pass" if ok else "fail", cost.evaluations)


# ---------------------------------------------------------------------------
# contour route

def contour_path_points(alpha: float, n_points: int) -> list[tuple[float, float, float]]:
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


def contour_trace(alpha: float, n_points: int = 128,
                  rtol: float = 1e-9, atol: float = 1e-11) -> complex:
    """The closed-path integral of 1/(8i (1 - e^-z) cos(z/2 alpha)).

    Parametrized by z(x) = log(2 cos x) + ix with dz = (i - tan x) dx;
    ``n_points`` seeds the interior panel grid, guarding against pole
    proximity when alpha sits near its domain edge.
    """
    case = case_by_id("DISC-CONTOUR")
    params = {"alpha": alpha}
    if not case.domain(params):
        raise DomainError(f"contour pinches a pole unless alpha > ln2/pi, got {alpha}")
    seed = [x for (x, _, _) in contour_path_points(alpha, max(64, n_points // 2))]
    return _integrate(case, params, seed, max(rtol * 0.1, 5e-13),
                      max(atol * 0.1, 5e-15)).value


def residue_count_appa(theta: float, a: float) -> int:
    """Poles enclosed by the path: 2 when z = a - i theta is inside, else 1."""
    if not abs(theta) < PI / 2:
        raise DomainError(f"need |theta| < pi/2, got {theta}")
    threshold = math.log(2.0 * math.cos(theta))
    if a == threshold:
        raise DomainError("pole sits exactly on the contour")
    return 2 if a < threshold else 1
