"""Infinite products and series with both direct and elliptic evaluations.

Every evaluator returns a :class:`SeriesValue` whose ``direct`` field is a
truncated summation with a certified geometric ``tail_bound`` and whose
``closed`` field is its elliptic form, built from the parameter bundle of
:mod:`logtrig.solver`.  ``closed`` is None where the package has no second
route: ``lambert_plain`` has no elliptic form, and ``cosh_third_sum`` is
itself the route to the Jacobi value cn(i K'/3, k) (``cn_imag_third``).
All sums converge geometrically with ratio exp(-c*pi*alpha), so a few
dozen terms suffice for any alpha on the verification grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .elliptic import EllipticParams
from .errors import DomainError

__all__ = [
    "SeriesValue",
    "product_one_minus",
    "product_one_plus",
    "lambert_alternating",
    "sinh2_sum_integer",
    "sinh2_sum_odd",
    "sqrt2_cosh_sum_odd",
    "sqrt2_cosh_sum_bilateral",
    "cosh_third_sum",
    "cn_imag_third",
    "lambert_plain",
    "gamma_fn",
]

_TERM_FLOOR = 1e-17
_MAX_TERMS = 20000


@dataclass(frozen=True)
class SeriesValue:
    direct: float
    closed: float | None
    tail_bound: float
    terms_used: int


def _check(params: EllipticParams) -> None:
    if params.alpha <= 0.0:
        raise DomainError(f"alpha must be positive, got {params.alpha}")


def _sum(term: Callable[[int], float], ratio: float, first: int = 0,
         total: float = 0.0, weight: float = 1.0,
         alternate: bool = False) -> tuple[float, float, int]:
    """Add weight * term(n) for n = first, first + 1, ... onto ``total``.

    Terms are positive and shrink at least geometrically with ``ratio``;
    summation stops at the first term below _TERM_FLOOR, which bounds the
    rest.  ``alternate`` flips the sign of every odd n.  Returns the sum,
    the tail bound and the number of terms added.
    """
    n = first
    t = 1.0
    while n < _MAX_TERMS:
        t = term(n)
        if t < _TERM_FLOOR:
            break
        total += -weight * t if alternate and n % 2 else weight * t
        n += 1
    return total, 2.0 * weight * t / (1.0 - ratio), n - first


def _product(x: float, sign: float) -> tuple[float, float, int]:
    """prod_{n>=1} (1 + sign * x^n) for 0 < x < 1, with its tail bound."""
    prod = 1.0
    term = 1.0
    n = 0
    while n < _MAX_TERMS:
        term *= x
        if term < _TERM_FLOOR:
            break
        prod *= 1.0 + sign * term
        n += 1
    return prod, prod * 2.0 * term / (1.0 - x), n


def product_one_minus(params: EllipticParams) -> SeriesValue:
    """prod_{n>=1} (1 - exp(-2 pi alpha n)) and its eta-quotient closed form."""
    _check(params)
    prod, tail, n = _product(math.exp(-2.0 * math.pi * params.alpha), -1.0)
    k, kp, big_k = params.k, params.k_prime, params.big_k
    closed = math.exp(math.pi * params.alpha / 12.0) * (
        2.0 * k * kp * big_k ** 3 / math.pi ** 3) ** (1.0 / 6.0)
    return SeriesValue(prod, closed, tail, n)


def product_one_plus(params: EllipticParams) -> SeriesValue:
    """prod_{n>=1} (1 + exp(-pi alpha n))."""
    _check(params)
    prod, tail, n = _product(math.exp(-math.pi * params.alpha), 1.0)
    closed = math.exp(math.pi * params.alpha / 24.0) * (
        math.sqrt(params.k) / (2.0 * params.k_prime)) ** (1.0 / 6.0)
    return SeriesValue(prod, closed, tail, n)


def lambert_alternating(params: EllipticParams) -> SeriesValue:
    """sum_{n>=0} (-1)^n / (exp(pi alpha (2n+1)) - 1) = K/(2 pi) - 1/4."""
    _check(params)
    a = math.pi * params.alpha
    total, tail, n = _sum(lambda n: 1.0 / math.expm1(a * (2 * n + 1)),
                          math.exp(-2.0 * a), alternate=True)
    closed = params.big_k / (2.0 * math.pi) - 0.25
    return SeriesValue(total, closed, tail, n)


def sinh2_sum_integer(params: EllipticParams) -> SeriesValue:
    """sum_{n>=1} 1/sinh^2(pi alpha n)."""
    _check(params)
    a = math.pi * params.alpha
    total, tail, n = _sum(lambda n: 1.0 / math.sinh(a * n) ** 2,
                          math.exp(-2.0 * a), first=1)
    K, E = params.big_k, params.big_e
    closed = (1.0 / 6.0 - 2.0 * K * E / math.pi ** 2
              + 2.0 * (2.0 - params.k ** 2) * K * K / (3.0 * math.pi ** 2))
    return SeriesValue(total, closed, tail, n)


def sinh2_sum_odd(params: EllipticParams) -> SeriesValue:
    """sum_{n>=0} 1/sinh^2(pi alpha (2n+1)/2)."""
    _check(params)
    a = math.pi * params.alpha
    total, tail, n = _sum(lambda n: 1.0 / math.sinh(0.5 * a * (2 * n + 1)) ** 2,
                          math.exp(-2.0 * a))
    K, E = params.big_k, params.big_e
    closed = 2.0 * K * (K - E) / math.pi ** 2
    return SeriesValue(total, closed, tail, n)


def sqrt2_cosh_sum_odd(params: EllipticParams) -> SeriesValue:
    """sum_{n>=0} 1/(sqrt(2) cosh(pi alpha (2n+1)/4) - 1)."""
    _check(params)
    a = math.pi * params.alpha
    r2 = math.sqrt(2.0)
    total, tail, n = _sum(
        lambda n: 1.0 / (r2 * math.cosh(0.25 * a * (2 * n + 1)) - 1.0),
        math.exp(-0.5 * a))
    k, K = params.k, params.big_k
    closed = k * K / math.pi * (1.0 + math.sqrt(2.0 + 2.0 / k))
    return SeriesValue(total, closed, tail, n)


def sqrt2_cosh_sum_bilateral(params: EllipticParams) -> SeriesValue:
    """sum over all integers n of 1/(sqrt(2) cosh(pi alpha n / 2) - 1)."""
    _check(params)
    a = math.pi * params.alpha
    r2 = math.sqrt(2.0)
    # the n = 0 term, then n and -n together
    total, tail, n = _sum(lambda n: 1.0 / (r2 * math.cosh(0.5 * a * n) - 1.0),
                          math.exp(-0.5 * a), first=1,
                          total=1.0 / (r2 - 1.0), weight=2.0)
    k, K = params.k, params.big_k
    closed = 2.0 * K / math.pi * (1.0 + math.sqrt(2.0 + 2.0 * k))
    return SeriesValue(total, closed, tail, n + 1)


def cosh_third_sum(params: EllipticParams) -> SeriesValue:
    """sum_{n>=0} 1/(2 cosh(pi alpha (2n+1)/3) - 1),
    which is k K cn(i K'/3, k) / pi."""
    _check(params)
    y = math.exp(-math.pi * params.alpha / 3.0)
    y2 = y * y

    def term(n: int) -> float:
        # the n-th term, y^(2n+1) / (1 - y^(2n+1) + y^(4n+2)), over y; the
        # weight y restores it, so the sum stops relative to its own size
        # and cn(i K'/3, k) keeps its digits at large alpha
        w = y2 ** n
        return w / (1.0 - y * w + y2 * w * w)

    total, tail, n = _sum(term, y2, weight=y)
    return SeriesValue(total, None, tail, n)


def cn_imag_third(params: EllipticParams) -> float:
    """cn(i K'/3, k), real and > 1, from k K cn(i K'/3, k) = pi S, S being
    the sum of :func:`cosh_third_sum`."""
    return math.pi * cosh_third_sum(params).direct / (params.k * params.big_k)


def lambert_plain(alpha: float, odd: bool = False) -> SeriesValue:
    """Lambert sums with no elliptic closed form (``closed`` is None).

    Default: sum_{n>=1} 1/(exp(2 pi alpha n) - 1).  With ``odd=True``:
    sum_{n>=0} 1/(exp(pi alpha (2n+1)) - 1).
    """
    if alpha <= 0.0:
        raise DomainError(f"alpha must be positive, got {alpha}")
    a = math.pi * alpha
    total, tail, n = _sum(
        lambda n: 1.0 / math.expm1(a * (2 * n + 1) if odd else 2.0 * a * (n + 1)),
        math.exp(-2.0 * a))
    return SeriesValue(total, None, tail, n)


# Lanczos rational approximation, g = 7, 9 coefficients.
_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def gamma_fn(x: float) -> float:
    """Gamma function for positive real arguments, relative error ~1e-14."""
    if x <= 0.0:
        raise DomainError(f"gamma_fn needs x > 0, got {x}")
    if x < 0.5:
        # reflection keeps the rational approximation on its good half-line
        return math.pi / (math.sin(math.pi * x) * gamma_fn(1.0 - x))
    z = x - 1.0
    acc = _LANCZOS_C[0]
    for i in range(1, len(_LANCZOS_C)):
        acc += _LANCZOS_C[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * t ** (z + 0.5) * math.exp(-t) * acc
