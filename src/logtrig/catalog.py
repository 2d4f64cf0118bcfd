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
    # None, or (end, lo, hi) -> the t-values in [lo, hi] where a pole sits
    # next to that end's path; the engine resolves each one (see
    # integrate_endpoint_oscillatory)
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


def scaled_cosh_minus_cos(u: float, v: float) -> float:
    """2 e^{-u} (cosh(u) - cos(v)) for u >= 0: the kernels that divide by it
    scale their numerator alike, so neither side overflows at large u."""
    return math.expm1(-u) ** 2 + 4.0 * math.exp(-u) * math.sin(0.5 * v) ** 2


def scaled_cosh_plus_cos(u: float, v: float) -> float:
    """2 e^{-u} (cosh(u) + cos(v)) for u >= 0, scaled as above."""
    return math.expm1(-u) ** 2 + 4.0 * math.exp(-u) * math.cos(0.5 * v) ** 2


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


def _alpha_above(lowest: float) -> Callable[[Params], bool]:
    return lambda p: p["alpha"] > lowest


def _a_ok(p: Params) -> bool:
    return abs(p["a"]) > 1e-9 and abs(p["a"] - LN2) > 1e-9


def _theta_ok(p: Params) -> bool:
    """|theta| < pi/2, and the pole a - i theta does not sit on the path."""
    return (abs(p["theta"]) < PI / 2
            and abs(p["a"] - math.log(2.0 * math.cos(p["theta"]))) > 1e-9)


def _denominator_dip(p: Params) -> tuple[float, ...]:
    """x > 0 where log(2 cos x) = a, the closest approach of ix + w - a to 0."""
    if p["a"] >= LN2:
        return ()
    return (math.acos(0.5 * math.exp(p["a"])),)


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


# Each T-kernel family divides by den(u, v) = cosh(u) -/+ cos(v); the "a"
# member takes cosh_minus_cos and the "b" member cosh_plus_cos.

def _t1_f(den: Callable[[float, float], float]):
    def integrand(p: Params):
        al = p["alpha"]
        return lambda x, w: math.log(den(x / al, w / al))
    return integrand


def _t3_f(den: Callable[[float, float], float]):
    def integrand(p: Params):
        al = p["alpha"]
        return lambda x, w: (math.sin(2.0 * x) * math.sinh(x / al)
                             / den(x / al, w / al))
    return integrand


def _t4_f(den: Callable[[float, float], float]):
    def integrand(p: Params):
        al = p["alpha"]
        return lambda x, w: (math.cos(2.0 * x) * math.sin(w / al)
                             / den(x / al, w / al))
    return integrand


def _t5_f(den: Callable[[float, float], float]):
    def integrand(p: Params):
        al = p["alpha"]
        return lambda x, w: (math.sinh((4.0 * x - PI) / al)
                             / den((4.0 * x - PI) / al, 4.0 * w / al))
    return integrand


_t1a_f, _t1b_f = _t1_f(cosh_minus_cos), _t1_f(cosh_plus_cos)
_t3a_f, _t3b_f = _t3_f(cosh_minus_cos), _t3_f(cosh_plus_cos)
_t4a_f, _t4b_f = _t4_f(cosh_minus_cos), _t4_f(cosh_plus_cos)
_t5a_f, _t5b_f = _t5_f(cosh_minus_cos), _t5_f(cosh_plus_cos)


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
    return lambda x, w: (2.0 * math.exp(-x / al) * math.sin(w / al)
                         / scaled_cosh_plus_cos(x / al, w / al))


def _p1_f(p: Params):
    a = p["a"]
    return lambda x, w: x / (x * x + (w + a) ** 2)


def _p2_f(p: Params):
    a = p["a"]
    return lambda x, w: (w + a) / (x * x + (w + a) ** 2)


def _p4_f(p: Params):
    al = p["alpha"]
    return lambda x, w: -math.expm1(-2.0 * x / al) / scaled_cosh_plus_cos(x / al, w / al)


def _p34_pinches(p: Params):
    """Poles of the DISC-P3/P4 kernels next to the path, as t-centres.

    cos(w/2 alpha) vanishes at t_m = (2m+1) pi alpha; only near the lower
    end, where sinh(x/2 alpha) -> 0 too, is the pole close to the path.
    """
    half = PI * p["alpha"]

    def centres(end: str, lo: float, hi: float) -> list[float]:
        if end != "lower":
            return []
        out = []
        k = max(0, math.floor(0.5 * (lo / half - 1.0)))
        while (t := (2 * k + 1) * half) <= hi:
            if t >= lo:
                out.append(t)
            k += 1
        return out
    return centres


def _im_f(p: Params):
    # sinh(s)/(cosh(s) - cos(v)) with s = w/alpha and v = x/alpha, both sides
    # scaled by 2 e^{-|s|}: nothing overflows however far the tail runs
    al = p["alpha"]

    def f(x: float, w: float) -> float:
        s = abs(w) / al
        return math.copysign(-math.expm1(-2.0 * s), w) / scaled_cosh_minus_cos(s, x / al)

    return f


def _grid_dip_points(p: Params) -> tuple[float, ...]:
    pts = _denominator_dip(p)
    return pts + tuple(-x for x in pts)


def _theta_pole_points(p: Params) -> tuple[float, ...]:
    return (-p["theta"],)


# The four paths, as (interval, map_kind, osc_ends): log cos on (0, pi/2)
# and on (-pi/2, pi/2), log sin on (0, pi), log sin(x/2) on (0, 2 pi).  The
# log-trig value diverges at exactly the ends listed.
_COS_HALF = ((0.0, PI / 2), "log-cos", ("upper",))
_COS_FULL = ((-PI / 2, PI / 2), "log-cos", ("lower", "upper"))
_SIN = ((0.0, PI), "log-sin", ("lower", "upper"))
_SIN_HALF = ((0.0, 2.0 * PI), "log-sin-half", ("lower", "upper"))

_CASES: list[IdentityCase] = []


def _add(id: str, description: str, path: tuple, param_kind: str, freq: float,
         integrand, rhs, domain, **extra) -> None:
    interval, map_kind, osc_ends = path
    _CASES.append(IdentityCase(id, description, interval, param_kind, map_kind,
                               freq, osc_ends, integrand, rhs, domain, **extra))


_add("INTRO-1", "log of x^2 + (log(2 cos x) - a)^2 on (0, pi/2)", _COS_HALF,
     "a", 0.0, _intro1_f,
     lambda p: PI * math.log(p["a"] / math.expm1(min(p["a"], LN2))),
     _a_ok, interior_points=_denominator_dip)

_add("INTRO-2", "same log kernel weighted by cos 2x", _COS_HALF, "a", 0.0,
     _intro2_f,
     lambda p: 0.5 * PI * (1.0 - 1.0 / p["a"] - math.exp(min(p["a"], LN2))
                           + 1.0 / math.expm1(min(p["a"], LN2))),
     _a_ok, interior_points=_denominator_dip)

_add("INTRO-3", "x sin 2x over the squared-distance kernel", _COS_HALF, "a",
     0.0, _intro3_f, lambda p: 0.25 * PI * _sine_kernel_s(p["a"]),
     _a_ok, interior_points=_denominator_dip)

_add("INTRO-4", "binomial weight (1+e^{2ix})^gamma over the pole kernel",
     _COS_FULL, "a-gamma", 0.0, _intro4_f, _intro4_rhs,
     lambda p: _a_ok(p) and p["gamma"] >= 0.0, complex_valued=True,
     interior_points=_grid_dip_points)

_add("T1-A", "log(cosh(x/a) - cos(log(2cos x)/a)) vs eta-type closed form",
     _COS_HALF, "alpha", 1.0, _t1a_f, _t1a_rhs, _alpha_above(LN2 / (2.0 * PI)))

_add("T1-B", "log(cosh + cos) vs algebraic modulus closed form", _COS_HALF,
     "alpha", 1.0, _t1b_f, _t1b_rhs, _alpha_above(LN2 / PI))

_add("T1-PA", "log(cosh - cos) vs direct q-product form", _COS_HALF, "alpha",
     1.0, _t1a_f, _t1pa_rhs, _alpha_above(LN2 / (2.0 * PI)))

_add("T1-PB", "log(cosh + cos) vs direct q-product form", _COS_HALF, "alpha",
     1.0, _t1b_f, _t1pb_rhs, _alpha_above(LN2 / PI))

_add("T2", "half-frequency cosh cos kernel vs pi(alpha+2)/8 - alpha K/4",
     _COS_HALF, "alpha", 0.5, _t2_f, _t2_rhs, _alpha_above(LN2 / PI))

_add("SINE", "i times the sin 2x pole-kernel integral (parity-real)",
     _COS_FULL, "a", 0.0, _sine_f,
     lambda p: complex(0.5 * PI * _sine_kernel_s(p["a"]), 0.0),
     _a_ok, complex_valued=True, interior_points=_grid_dip_points)

_add("SINE0", "the a = 0 sin 2x pole-kernel value 13 pi/24", _COS_FULL,
     "fixed", 0.0, _sine_f, lambda p: complex(13.0 * PI / 24.0, 0.0),
     lambda p: True, complex_valued=True, fixed_params={})

_add("T3-A", "sin 2x sinh kernel over cosh - cos", _COS_HALF, "alpha", 1.0,
     _t3a_f, _t3a_rhs, _alpha_above(LN2 / (2.0 * PI)))

_add("T3-B", "sin 2x sinh kernel over cosh + cos", _COS_HALF, "alpha", 1.0,
     _t3b_f, _t3b_rhs, _alpha_above(LN2 / PI))

_add("COS", "cos 2x pole-kernel integral with Heaviside switch", _COS_FULL,
     "a", 0.0, _cos_f, _cos_rhs, _a_ok, complex_valued=True,
     interior_points=_grid_dip_points)

_add("T4-A", "cos 2x sin(log-term) kernel over cosh - cos", _COS_HALF,
     "alpha", 1.0, _t4a_f, _t4a_rhs, _alpha_above(LN2 / (2.0 * PI)))

_add("T4-B", "cos 2x sin(log-term) kernel over cosh + cos", _COS_HALF,
     "alpha", 1.0, _t4b_f, _t4b_rhs, _alpha_above(LN2 / PI))

_add("T4-PA", "cos 2x sin kernel vs direct sinh^-2 sum form", _COS_HALF,
     "alpha", 1.0, _t4a_f, _t4pa_rhs, _alpha_above(LN2 / (2.0 * PI)))

_add("T4-PB", "cos 2x sin kernel vs direct odd sinh^-2 sum form", _COS_HALF,
     "alpha", 1.0, _t4b_f, _t4pb_rhs, _alpha_above(LN2 / PI))

_add("S3-T5A", "sinh((4x-pi)/a) over cosh - cos(4 log(2sin x)/a) on (0, pi)",
     _SIN, "alpha", 4.0, _t5a_f, _t5a_rhs, _alpha_above(LN2 / PI),
     interior_points=lambda p: (PI / 4.0,))

_add("S3-T5B", "same kernel over cosh + cos, sqrt(2+2/k) closed form", _SIN,
     "alpha", 4.0, _t5b_f, _t5b_rhs, _alpha_above(2.0 * LN2 / PI),
     interior_points=lambda p: (PI / 4.0,))

_add("S3-T6", "sinh((pi-6x)/2a) kernel, cn(i K'/3, k) closed form", _SIN,
     "alpha", 3.0, _t6_f, _t6_rhs, _alpha_above(0.0),
     interior_points=lambda p: (PI / 6.0,))

_add("S3-T7", "arctan(tanh/cot) kernel weighted by cos x on (0, 2 pi)",
     _SIN_HALF, "alpha", 1.5, _t7_f, _t7_rhs, _alpha_above(3.0 * LN2 / PI))

_add("THETA2", "cos 2x kernel with shifted pole i(x+theta) - a", _COS_FULL,
     "a-theta", 0.0, _theta2_f, _theta2_rhs, _theta_ok, complex_valued=True,
     interior_points=_theta_pole_points)

_add("EX-1", "log(cosh + cos) at alpha = sqrt(3), gamma-free value", _COS_HALF,
     "fixed", 1.0, _t1b_f,
     lambda p: (PI * PI / (8.0 * SQRT3) - 0.25 * PI * math.log(1.0 + SQRT3)
                + 13.0 * PI / 24.0 * LN2),
     lambda p: True, fixed_params={"alpha": SQRT3})

_add("EX-2", "half-frequency kernel at alpha = 2, Gamma(1/4) value", _COS_HALF,
     "fixed", 0.5, _t2_f,
     lambda p: (0.5 * PI - (math.sqrt(2.0) + 1.0) * gamma_fn(0.25) ** 2
                / (16.0 * math.sqrt(2.0 * PI))),
     lambda p: True, fixed_params={"alpha": 2.0})

_add("EX-3", "cn(i K'/3) kernel at alpha = sqrt(3), Gamma(1/3) value", _SIN,
     "fixed", 3.0, _t6_f,
     lambda p: (gamma_fn(1.0 / 3.0) ** 3 / (2.0 ** (10.0 / 3.0) * PI)
                - PI * math.tanh(0.5 * PI / SQRT3)),
     lambda p: True, fixed_params={"alpha": SQRT3},
     interior_points=lambda p: (PI / 6.0,))

_add("DISC-CONTOUR", "parametrized contour integral of the half-frequency kernel",
     _COS_FULL, "alpha", 0.5, _contour_f, _t2_rhs, _alpha_above(LN2 / PI),
     complex_valued=True)

_add("DISC-L1", "sin(log-term) over cosh - cos vs plain Lambert sum", _COS_HALF,
     "alpha", 1.0, _l1_f,
     lambda p: 0.5 * PI * p["alpha"]
     - PI * p["alpha"] * lambert_plain(p["alpha"]).direct,
     lambda p: p["alpha"] > 0.0
     and _not_near_integer(LN2 / (2.0 * PI * p["alpha"]), 1, 1))

_add("DISC-L2", "sin(log-term) over cosh + cos vs odd Lambert sum", _COS_HALF,
     "alpha", 1.0, _l2_f,
     lambda p: PI * p["alpha"] * lambert_plain(p["alpha"], odd=True).direct,
     lambda p: p["alpha"] > 0.0
     and _not_near_integer(LN2 / (PI * p["alpha"]), 1, 2))

_add("DISC-P1", "x over squared-distance kernel of log(2 e^a sin x)", _SIN, "a",
     0.0, _p1_f, lambda p: 2.0 * PI ** 2 / (PI ** 2 + 4.0 * p["a"] ** 2),
     lambda p: True)

_add("DISC-P2", "log(2 e^a sin x) over its squared-distance kernel", _SIN, "a",
     0.0, _p2_f, lambda p: 4.0 * PI * p["a"] / (PI ** 2 + 4.0 * p["a"] ** 2),
     lambda p: True)

# The cos = -1 poles of DISC-P3 and DISC-P4 at t_m = (2m+1) pi alpha lie at
# a distance of about e^{-t_m}/2 from the path next to the lower end; the
# engine integrates the segments beside each one in a sinh-graded variable.
# The kernels have period 2 pi alpha in t, but freq 2 halves the lattice
# spacing, which the interior panel's error estimate needs at large alpha.
_add("DISC-P3", "sin(log-term)/(cosh + cos) on (0, pi), zero value", _SIN,
     "alpha", 2.0, _l2_f, lambda p: 0.0, _alpha_above(0.0),
     tail_points=_p34_pinches)

_add("DISC-P4", "sinh(x/a)/(cosh + cos) on (0, pi), tanh closed form", _SIN,
     "alpha", 2.0, _p4_f, lambda p: PI * math.tanh(0.25 * PI / p["alpha"]),
     _alpha_above(0.0), tail_points=_p34_pinches)

_add("DISC-IM", "sinh/cosh roles of x and the log term exchanged", _COS_HALF,
     "alpha", 0.0, _im_f, lambda p: 0.5 * PI * p["alpha"],
     lambda p: p["alpha"] > 0.0
     and _not_near_integer(1.0 / (6.0 * p["alpha"]), 1, 1),
     interior_points=lambda p: (PI / 3.0,))

_add("APPA", "pole kernel 1/(i(x+theta) - a + log(2cos x))", _COS_FULL,
     "a-theta", 0.0, _appa_f, _appa_rhs, _theta_ok, complex_valued=True,
     interior_points=_theta_pole_points)

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


def evaluate_lhs(case: IdentityCase, params: Params,
                 rtol: float = 1e-8, atol: float = 1e-10
                 ) -> tuple[float | complex, QuadratureResult]:
    """Quadrature side of one case at one parameter point, in one pass
    whether the integrand is real or complex."""
    params = case_params(case, params)
    a, b = case.interval
    period = 2.0 * PI * params["alpha"] / case.freq if case.freq else None
    res = integrate_endpoint_oscillatory(
        case.integrand(params), a, b, case.map_kind, case.osc_ends, period,
        tol=max(rtol * 0.02, 5e-13), atol=max(atol * 0.02, 5e-15),
        points=case.interior_points(params), tail_points=case.tail_points(params))
    return res.value, res


def evaluate_rhs(case: IdentityCase, params: Params) -> float | complex:
    """Closed-form side of one case at one parameter point."""
    return case.rhs(case_params(case, params))


def verify_case(case: IdentityCase, params: Params,
                rtol: float = 1e-8, atol: float = 1e-10) -> VerificationRow:
    """Check one (case, parameter) pair; numerics failures become error rows."""
    check_tolerances(rtol, atol)
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
    with dz = (i - tan x) dx."""
    return evaluate_lhs(case_by_id("DISC-CONTOUR"), {"alpha": alpha})[0]


def residue_count_appa(theta: float, a: float) -> int:
    """Poles enclosed by the path: 2 when z = a - i theta is inside, else 1."""
    if not abs(theta) < PI / 2:
        raise DomainError(f"need |theta| < pi/2, got {theta}")
    threshold = math.log(2.0 * math.cos(theta))
    if a == threshold:
        raise DomainError("pole sits exactly on the contour")
    return 2 if a < threshold else 1
