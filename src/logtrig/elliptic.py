"""Complete elliptic integrals via the arithmetic-geometric mean.

K(k) = pi / (2 * agm(1, k')) and E(k) follows from the companion sequence
c_n = (a_n - b_n) / 2 of the same iteration, so the core needs no
quadrature.  The modulus pair is always formed as k' = sqrt((1-k)(1+k)) to
keep relative accuracy when k is close to 1.  ``oracle_k_quadrature``
evaluates the defining integral independently and exists for cross-checks
only.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import DomainError
from .quadrature import tanh_sinh

__all__ = [
    "EllipticParams",
    "agm",
    "complete_k",
    "complete_e",
    "complementary_modulus",
    "nome",
    "params_from_modulus",
    "oracle_k_quadrature",
]

_EPS = sys.float_info.epsilon


@dataclass(frozen=True)
class EllipticParams:
    """The quantity bundle every closed form consumes.

    alpha = K'/K, q = exp(-pi * alpha), k^2 + k_prime^2 = 1 and the Legendre
    relation E*K' + E'*K - K*K' = pi/2 tie the fields together.
    """

    alpha: float
    k: float
    k_prime: float
    big_k: float
    big_k_prime: float
    big_e: float
    big_e_prime: float
    q: float


def agm(a: float, b: float) -> float:
    """Common limit of the arithmetic/geometric mean iteration."""
    if not (a > 0.0 and b > 0.0):
        raise DomainError(f"agm needs positive arguments, got ({a}, {b})")
    while abs(a - b) > 4.0 * _EPS * abs(a):
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return 0.5 * (a + b)


def complementary_modulus(k: float) -> float:
    """k' = sqrt((1-k)(1+k)), accurate also for k near 1."""
    return math.sqrt((1.0 - k) * (1.0 + k))


def complete_k(k: float) -> float:
    """Complete elliptic integral of the first kind, K(k)."""
    if k < 0.0:
        raise DomainError(f"modulus must be nonnegative, got {k}")
    if k >= 1.0:
        raise DomainError(f"K(k) diverges as k -> 1, got {k}")
    return math.pi / (2.0 * agm(1.0, complementary_modulus(k)))


def complete_e(k: float) -> float:
    """Complete elliptic integral of the second kind, E(k)."""
    if not 0.0 <= k <= 1.0:
        raise DomainError(f"modulus must lie in [0, 1], got {k}")
    if k == 1.0:
        return 1.0
    a, b = 1.0, complementary_modulus(k)
    c = k
    s = 0.5 * c * c
    power = 0.5
    while abs(a - b) > 4.0 * _EPS * abs(a):
        c = 0.5 * (a - b)
        a, b = 0.5 * (a + b), math.sqrt(a * b)
        power *= 2.0
        s += power * c * c
    big_k = math.pi / (2.0 * a)
    return big_k * (1.0 - s)


def nome(alpha: float) -> float:
    """q = exp(-pi * alpha)."""
    if alpha <= 0.0:
        raise DomainError(f"alpha must be positive, got {alpha}")
    return math.exp(-math.pi * alpha)


def _bundle(k: float, k_prime: float, alpha: float | None = None) -> EllipticParams:
    """The bundle of a modulus pair; alpha defaults to the pair's own K'/K."""
    m_direct = agm(1.0, k_prime)   # pi / (2 K)
    m_comp = agm(1.0, k)           # pi / (2 K')
    if alpha is None:
        alpha = m_direct / m_comp
    return EllipticParams(
        alpha=alpha,
        k=k,
        k_prime=k_prime,
        big_k=math.pi / (2.0 * m_direct),
        big_k_prime=math.pi / (2.0 * m_comp),
        big_e=complete_e(k),
        big_e_prime=complete_e(k_prime),
        q=math.exp(-math.pi * alpha),
    )


def params_from_modulus(k: float) -> EllipticParams:
    """Fill the full parameter bundle from a modulus in (0, 1)."""
    if not 0.0 < k < 1.0:
        raise DomainError(f"modulus must lie strictly inside (0, 1), got {k}")
    return _bundle(k, complementary_modulus(k))


def oracle_k_quadrature(k: float) -> float:
    """K(k) by tanh-sinh quadrature of its defining integral (tests only)."""
    if k < 0.0:
        raise DomainError(f"modulus must be nonnegative, got {k}")
    if k >= 1.0:
        raise DomainError(f"K(k) diverges as k -> 1, got {k}")
    m = k * k

    def integrand(phi: float) -> float:
        s = math.sin(phi)
        return 1.0 / math.sqrt(1.0 - m * s * s)

    return tanh_sinh(integrand, 0.0, 0.5 * math.pi, eps=1e-14).value
