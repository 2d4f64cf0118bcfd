"""Inversion of alpha = K'(k)/K(k) for the modulus.

The inverse has a closed form through the nome q = exp(-pi alpha):
k = theta2(q)^2 / theta3(q)^2 (Borwein & Borwein, *Pi and the AGM*, ch. 2).
To keep full relative accuracy it is always evaluated for the smaller of
the pair (k, k'): for alpha < 1 the mirrored ratio 1/alpha is used and the
roles swapped, since alpha(k') = 1/alpha(k).  Then q <= exp(-pi) and a few
theta terms reach double precision.
"""

from __future__ import annotations

import math

from .elliptic import EllipticParams, _bundle, agm, complementary_modulus
from .errors import DomainError, SolverError

__all__ = ["alpha_from_modulus", "modulus_from_alpha"]

# With q <= exp(-pi) the first omitted terms, q^20 and q^25, sit far below
# one ulp of the leading 1.
_THETA_TERMS = 4
# Accepted |K'/K - alpha| relative to alpha.
_TOL_ALPHA = 1e-13


def alpha_from_modulus(k: float) -> float:
    """K(k')/K(k), computed as agm(1, k')/agm(1, k) to dodge cancellation."""
    if not 0.0 < k < 1.0:
        raise DomainError(f"modulus must lie strictly inside (0, 1), got {k}")
    return agm(1.0, complementary_modulus(k)) / agm(1.0, k)


def _small_modulus(alpha: float) -> float:
    """k = 4 sqrt(q) (sum_{n>=0} q^(n(n+1)) / (1 + 2 sum_{n>=1} q^(n^2)))^2
    for alpha >= 1, so k <= 1/sqrt(2)."""
    q = math.exp(-math.pi * alpha)
    theta2 = sum(q ** (n * (n + 1)) for n in range(_THETA_TERMS))
    theta3 = 1.0 + 2.0 * sum(q ** (n * n) for n in range(1, _THETA_TERMS + 1))
    return 4.0 * math.sqrt(q) * (theta2 / theta3) ** 2


def modulus_from_alpha(alpha: float) -> EllipticParams:
    """Parameter bundle whose ratio K'/K equals the prescribed alpha."""
    if not alpha > 0.0 or math.isinf(alpha) or math.isnan(alpha):
        raise DomainError(f"alpha must be a positive real, got {alpha}")
    if alpha >= 1.0:
        k = _small_modulus(alpha)
        k_prime = complementary_modulus(k)
    else:
        k_prime = _small_modulus(1.0 / alpha)
        k = complementary_modulus(k_prime)
    if not (0.0 < k < 1.0 and 0.0 < k_prime < 1.0):
        # one modulus is within half an ulp of 1; the pair cannot be carried
        # in double precision (roughly alpha outside (0.09, 13))
        raise SolverError(
            f"modulus pair for alpha={alpha} degenerates in double precision")
    params = _bundle(k, k_prime, alpha)
    if abs(params.big_k_prime / params.big_k - alpha) > _TOL_ALPHA * alpha:
        raise SolverError(f"residual K'/K - alpha above {_TOL_ALPHA:g} "
                          f"relative for alpha={alpha}")
    return params
