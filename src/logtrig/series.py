"""Infinite products and q-series of alpha, summed directly.

Every evaluator takes alpha > 0 and returns a :class:`SeriesValue`: a
truncated summation with a certified geometric ``tail_bound``.  None needs
the nome bundle of :mod:`logtrig.solver`, so the closed forms built from
these sums hold wherever the sums do; the tests check each sum against its
elliptic form (Berndt, *Ramanujan's Notebooks III*, ch. 17; DLMF §20.9).
``cn_imag_third`` alone takes the bundle: it divides a sum by k K.
All sums converge geometrically with ratio exp(-c*pi*alpha), so a few
dozen terms suffice for any alpha on the verification grids.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

from .elliptic import EllipticParams
from .errors import AccuracyError, DomainError

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
    "inv_expm1",
    "csch",
]

_TERM_FLOOR = 1e-17
_MAX_TERMS = 20000


class SeriesValue(NamedTuple):
    direct: float
    tail_bound: float
    terms_used: int


def inv_expm1(x: float) -> float:
    """1/(e^x - 1) for x > 0, written in e^{-x} so that no large x overflows."""
    return math.exp(-x) / -math.expm1(-x)


def csch(x: float) -> float:
    """1/sinh(x) for x > 0, written in e^{-x} so that no large x overflows."""
    return 2.0 * math.exp(-x) / -math.expm1(-2.0 * x)


def _check(x: float, name: str = "alpha") -> None:
    if not 0.0 < x < math.inf:
        raise DomainError(f"{name} must be a positive real, got {x}")


def _sum(name: str, term: Callable[[int], float], ratio: float,
         first: int = 0, total: float = 0.0, weight: float = 1.0,
         alternate: bool = False) -> SeriesValue:
    """Add weight * term(n) for n = first, first + 1, ... onto ``total``.

    Terms are positive and shrink at least geometrically with ``ratio``;
    summation stops at the first term below _TERM_FLOOR, which bounds the
    rest.  ``alternate`` flips the sign of every odd n.  A sum that needs
    more than _MAX_TERMS terms raises AccuracyError naming ``name``.
    """
    n = first
    t = math.inf       # a first term past the limit leaves nothing to bound
    while n < _MAX_TERMS:
        t = term(n)
        if t < _TERM_FLOOR:
            return SeriesValue(total, 2.0 * weight * t / (1.0 - ratio),
                               n - first)
        total += -weight * t if alternate and n % 2 else weight * t
        n += 1
    raise AccuracyError(f"{name} did not converge in {n - first} terms",
                        best=total,
                        error_estimate=2.0 * weight * t / (1.0 - ratio))


def _product(name: str, x: float, sign: float) -> SeriesValue:
    """prod_{n>=1} (1 + sign * x^n) for 0 < x < 1, with its tail bound."""
    prod = 1.0
    term = 1.0
    n = 0
    while n < _MAX_TERMS:
        term *= x
        if term < _TERM_FLOOR:
            return SeriesValue(prod, prod * 2.0 * term / (1.0 - x), n)
        prod *= 1.0 + sign * term
        n += 1
    raise AccuracyError(f"{name} did not converge in {n} terms", best=prod,
                        error_estimate=prod * 2.0 * term / (1.0 - x))


def product_one_minus(alpha: float) -> SeriesValue:
    """prod_{n>=1} (1 - exp(-2 pi alpha n))."""
    _check(alpha)
    return _product("product_one_minus", math.exp(-2.0 * math.pi * alpha),
                    -1.0)


def product_one_plus(alpha: float) -> SeriesValue:
    """prod_{n>=1} (1 + exp(-pi alpha n))."""
    _check(alpha)
    return _product("product_one_plus", math.exp(-math.pi * alpha), 1.0)


def lambert_alternating(alpha: float) -> SeriesValue:
    """sum_{n>=0} (-1)^n / (exp(pi alpha (2n+1)) - 1)."""
    _check(alpha)
    a = math.pi * alpha
    return _sum("lambert_alternating", lambda n: inv_expm1(a * (2 * n + 1)),
                math.exp(-2.0 * a), alternate=True)


def sinh2_sum_integer(alpha: float) -> SeriesValue:
    """sum_{n>=1} 1/sinh^2(pi alpha n)."""
    _check(alpha)
    a = math.pi * alpha
    return _sum("sinh2_sum_integer", lambda n: csch(a * n) ** 2,
                math.exp(-2.0 * a), first=1)


def sinh2_sum_odd(alpha: float) -> SeriesValue:
    """sum_{n>=0} 1/sinh^2(pi alpha (2n+1)/2)."""
    _check(alpha)
    a = math.pi * alpha
    return _sum("sinh2_sum_odd", lambda n: csch(0.5 * a * (2 * n + 1)) ** 2,
                math.exp(-2.0 * a))


def sqrt2_cosh_sum_odd(alpha: float) -> SeriesValue:
    """sum_{n>=0} 1/(sqrt(2) cosh(pi alpha (2n+1)/4) - 1)."""
    _check(alpha)
    a = math.pi * alpha
    r2 = math.sqrt(2.0)
    return _sum("sqrt2_cosh_sum_odd",
                lambda n: 1.0 / (r2 * math.cosh(0.25 * a * (2 * n + 1)) - 1.0),
                math.exp(-0.5 * a))


def sqrt2_cosh_sum_bilateral(alpha: float) -> SeriesValue:
    """sum over all integers n of 1/(sqrt(2) cosh(pi alpha n / 2) - 1)."""
    _check(alpha)
    a = math.pi * alpha
    r2 = math.sqrt(2.0)
    # n and -n together, weight 2; starting from minus the n = 0 term
    # counts that one once
    return _sum("sqrt2_cosh_sum_bilateral",
                lambda n: 1.0 / (r2 * math.cosh(0.5 * a * n) - 1.0),
                math.exp(-0.5 * a), total=-1.0 / (r2 - 1.0), weight=2.0)


def cosh_third_sum(alpha: float) -> SeriesValue:
    """sum_{n>=0} 1/(2 cosh(pi alpha (2n+1)/3) - 1),
    which is k K cn(i K'/3, k) / pi."""
    _check(alpha)
    y = math.exp(-math.pi * alpha / 3.0)
    y2 = y * y

    def term(n: int) -> float:
        # the n-th term, y^(2n+1) / (1 - y^(2n+1) + y^(4n+2)), over y; the
        # weight y restores it, so the sum stops relative to its own size
        # and cn(i K'/3, k) keeps its digits at large alpha
        w = y2 ** n
        return w / (1.0 - y * w + y2 * w * w)

    return _sum("cosh_third_sum", term, y2, weight=y)


def cn_imag_third(params: EllipticParams) -> float:
    """cn(i K'/3, k), real and > 1, from k K cn(i K'/3, k) = pi S, S being
    the sum of :func:`cosh_third_sum`."""
    return (math.pi * cosh_third_sum(params.alpha).direct
            / (params.k * params.big_k))


def lambert_plain(alpha: float, odd: bool = False, first: int = 0) -> SeriesValue:
    """Lambert sums: by default sum_{n>=1} 1/(exp(2 pi alpha n) - 1), with
    ``odd=True`` sum_{n>=0} 1/(exp(pi alpha (2n+1)) - 1); ``first`` terms
    are left out."""
    _check(alpha)
    a = math.pi * alpha
    return _sum(
        "lambert_plain",
        lambda n: inv_expm1(a * (2 * n + 1) if odd else 2.0 * a * (n + 1)),
        math.exp(-2.0 * a), first)


def gamma_fn(x: float) -> float:
    """Gamma function for positive real arguments."""
    _check(x, "gamma_fn's x")
    return math.gamma(x)
