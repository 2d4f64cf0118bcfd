"""The elliptic parameter bundle, the nome and the arithmetic-geometric mean.

:class:`EllipticParams` carries every quantity a closed form consumes; the
solver fills it from the nome q = exp(-pi alpha).  ``agm`` serves the
solver's independent check: K = pi / (2 agm(1, k')) and
K' = pi / (2 agm(1, k)), so agm(1, k') / agm(1, k) must return alpha.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

from .errors import DomainError

__all__ = ["EllipticParams", "agm", "nome"]

_EPS = sys.float_info.epsilon


class EllipticParams(NamedTuple):
    """The quantity bundle every closed form consumes.

    alpha = K'/K, q = exp(-pi * alpha), k^2 + k_prime^2 = 1 and the Legendre
    relation E*K' + E'*K - K*K' = pi/2 tie the fields together.
    ``log_k_prime`` keeps its digits where k_prime rounds to 1.
    """

    alpha: float
    k: float
    k_prime: float
    log_k_prime: float
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


def nome(alpha: float) -> float:
    """q = exp(-pi * alpha)."""
    if not 0.0 < alpha < math.inf:
        raise DomainError(f"alpha must be a positive real, got {alpha}")
    return math.exp(-math.pi * alpha)
