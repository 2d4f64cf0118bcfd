"""The AGM and Landen route to K, E, K'/K and cn(i K'/3, k).

The package computes these from the nome alone (``logtrig.solver``); the
tests check that route against this one, which shares nothing with it but
the modulus it is given, and needs no mpmath.  Passing the complementary
modulus as well keeps full accuracy where one of the pair rounds to 1.
A tanh-sinh rule integrates K's defining integral as a third route.
``SERIES_CLOSED_FORMS`` holds the elliptic forms of the q-series that
``logtrig.series`` sums directly.
"""

import math
import sys
from typing import Callable

from logtrig import AccuracyError, DomainError, QuadratureResult, agm

_EPS = sys.float_info.epsilon


def complementary_modulus(k: float) -> float:
    """k' = sqrt((1-k)(1+k)), accurate also for k near 1."""
    return math.sqrt((1.0 - k) * (1.0 + k))


def complete_k(k: float, k_prime: float | None = None) -> float:
    """Complete elliptic integral of the first kind,
    K(k) = pi / (2 agm(1, k'))."""
    if k < 0.0:
        raise DomainError(f"modulus must be nonnegative, got {k}")
    if k >= 1.0:
        raise DomainError(f"K(k) diverges as k -> 1, got {k}")
    if k_prime is None:
        k_prime = complementary_modulus(k)
    return math.pi / (2.0 * agm(1.0, k_prime))


def complete_e(k: float, k_prime: float | None = None) -> float:
    """Complete elliptic integral of the second kind, from the companion
    sequence c_n = (a_n - b_n) / 2 of the AGM."""
    if not 0.0 <= k <= 1.0:
        raise DomainError(f"modulus must lie in [0, 1], got {k}")
    if k == 1.0:
        return 1.0
    a, b = 1.0, complementary_modulus(k) if k_prime is None else k_prime
    c = k
    s = 0.5 * c * c
    power = 0.5
    while abs(a - b) > 4.0 * _EPS * abs(a):
        c = 0.5 * (a - b)
        a, b = 0.5 * (a + b), math.sqrt(a * b)
        power *= 2.0
        s += power * c * c
    return math.pi / (2.0 * a) * (1.0 - s)


def alpha_from_modulus(k: float) -> float:
    """K(k')/K(k), computed as agm(1, k')/agm(1, k) to dodge cancellation."""
    if not 0.0 < k < 1.0:
        raise DomainError(f"modulus must lie strictly inside (0, 1), got {k}")
    return agm(1.0, complementary_modulus(k)) / agm(1.0, k)


def tanh_sinh(f: Callable[[float], float], a: float, b: float,
              eps: float = 1e-13, max_level: int = 12) -> QuadratureResult:
    """Tanh-sinh rule on [a, b]; robust for integrable endpoint singularities.

    Doubles the node density per level until two successive levels agree to
    ``eps`` relative.  Endpoint nodes that round onto a or b are skipped,
    their weights being negligible by then.
    """
    if not a < b:
        raise DomainError(f"need a < b, got [{a}, {b}]")
    half = 0.5 * (b - a)
    piover2 = 0.5 * math.pi
    evaluations = 0
    prev = None
    value = 0.0
    err = math.inf
    for level in range(3, max_level + 1):
        h = 0.5 ** level
        total = 0.0
        j = 0
        small = 0
        while True:
            u = j * h
            sh = piover2 * math.sinh(u)
            # distance of the node to its endpoint, free of cancellation:
            # 1 - tanh(sh) = 2 e^{-2 sh} / (1 + e^{-2 sh})
            e2 = math.exp(-2.0 * sh)
            delta = half * 2.0 * e2 / (1.0 + e2)
            w = piover2 * math.cosh(u) * 4.0 * e2 / (1.0 + e2) ** 2
            if delta <= 0.0 or w <= 0.0:
                break
            contrib = w * f(b - delta)
            evaluations += 1
            if j > 0:
                contrib += w * f(a + delta)
                evaluations += 1
            total += contrib
            if abs(contrib) <= 1e-18 * (abs(total) + 1e-300) and j * h > 3.0:
                small += 1
                if small >= 3:
                    break
            else:
                small = 0
            j += 1
            if j * h > 7.0:
                break
        value = total * h * half
        if prev is not None:
            err = abs(value - prev)
            if err <= eps * max(1.0, abs(value)):
                return QuadratureResult(value, err, evaluations, level)
        prev = value
    raise AccuracyError("tanh-sinh did not converge", best=value,
                        error_estimate=err, evaluations=evaluations)


def oracle_k_quadrature(k: float) -> float:
    """K(k) by tanh-sinh quadrature of its defining integral."""
    if k < 0.0:
        raise DomainError(f"modulus must be nonnegative, got {k}")
    if k >= 1.0:
        raise DomainError(f"K(k) diverges as k -> 1, got {k}")
    m = k * k

    def integrand(phi: float) -> float:
        s = math.sin(phi)
        return 1.0 / math.sqrt(1.0 - m * s * s)

    return tanh_sinh(integrand, 0.0, 0.5 * math.pi, eps=1e-14).value


def sn_descending(u: float, k: float, k_prime: float) -> float:
    """Jacobi sn(u, k) by descending Landen steps; each step's modulus is
    formed as k^2 / (1 + k')^2 and its complement as 2 sqrt(k') / (1 + k'),
    so neither cancels."""
    if k < 1e-9:
        # small-modulus expansion, error O(k^4)
        s, c = math.sin(u), math.cos(u)
        return s - 0.25 * k * k * (u - s * c) * c
    k1 = (k / (1.0 + k_prime)) ** 2
    k1_prime = 2.0 * math.sqrt(k_prime) / (1.0 + k_prime)
    s1 = sn_descending(u / (1.0 + k1), k1, k1_prime)
    return (1.0 + k1) * s1 / (1.0 + k1 * s1 * s1)


def cn_imag_third(k: float, k_prime: float) -> float:
    """cn(i K'/3, k) = 1 / cn(K'/3, k'), K' = K(k')."""
    sn = sn_descending(complete_k(k_prime, k) / 3.0, k_prime, k)
    return 1.0 / math.sqrt((1.0 - sn) * (1.0 + sn))


# The elliptic form of each sum of logtrig.series, from the parameter
# bundle of the same alpha: eta quotients, K and E, and cn(i K'/3, k)
# (Berndt, *Ramanujan's Notebooks III*, ch. 17; DLMF §20.9).
SERIES_CLOSED_FORMS = {
    "product_one_minus": lambda ep: math.exp(math.pi * ep.alpha / 12.0) * (
        2.0 * ep.k * ep.k_prime * ep.big_k ** 3 / math.pi ** 3) ** (1.0 / 6.0),
    "product_one_plus": lambda ep: math.exp(math.pi * ep.alpha / 24.0) * (
        math.sqrt(ep.k) / (2.0 * ep.k_prime)) ** (1.0 / 6.0),
    "lambert_alternating": lambda ep: ep.big_k / (2.0 * math.pi) - 0.25,
    "sinh2_sum_integer": lambda ep: (
        1.0 / 6.0 - 2.0 * ep.big_k * ep.big_e / math.pi ** 2
        + 2.0 * (2.0 - ep.k ** 2) * ep.big_k * ep.big_k / (3.0 * math.pi ** 2)),
    "sinh2_sum_odd": lambda ep: (
        2.0 * ep.big_k * (ep.big_k - ep.big_e) / math.pi ** 2),
    "sqrt2_cosh_sum_odd": lambda ep: (
        ep.k * ep.big_k / math.pi * (1.0 + math.sqrt(2.0 + 2.0 / ep.k))),
    "sqrt2_cosh_sum_bilateral": lambda ep: (
        2.0 * ep.big_k / math.pi * (1.0 + math.sqrt(2.0 + 2.0 * ep.k))),
    "cosh_third_sum": lambda ep: (
        ep.k * ep.big_k / math.pi * cn_imag_third(ep.k, ep.k_prime)),
}
