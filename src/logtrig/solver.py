"""Every closed-form quantity of alpha = K'/K from the nome.

At q = exp(-pi alpha) the moduli and the complete integrals are q-series
(DLMF §20.9; Berndt, *Ramanujan's Notebooks III*, ch. 17):

    k = theta2^2 / theta3^2,  k' = theta4^2 / theta3^2,  K = (pi/2) theta3^2,
    (E - (2 - k^2) K / 3) K = (pi^2 / 12) P(q^2),
    P(x) = 1 - 24 sum_{n>=1} n x^n / (1 - x^n),

and E' follows from the Legendre relation E K' + E' K - K K' = pi/2.  For
alpha < 1 the series run at q = exp(-pi / alpha) with the roles of the pair
swapped, since alpha(k') = 1/alpha(k); so q <= exp(-pi), and four theta
terms and a few Lambert terms reach double precision.  K - E and log k'
come out as sums free of cancellation, so E, E' and log k' keep their
digits where k' rounds to 1.  The AGM ratio agm(1, k') / agm(1, k) = K'/K
is the one independent check of each solve.
"""

from __future__ import annotations

import math
import sys

from .elliptic import EllipticParams, agm, nome
from .errors import DomainError, SolverError

__all__ = ["modulus_from_alpha"]

# Accepted |K'/K - alpha| relative to alpha.
_TOL_ALPHA = 1e-13


def modulus_from_alpha(alpha: float) -> EllipticParams:
    """Parameter bundle whose ratio K'/K equals the prescribed alpha."""
    if not 0.0 < alpha < math.inf:
        raise DomainError(f"alpha must be a positive real, got {alpha}")
    t = alpha if alpha >= 1.0 else 1.0 / alpha
    q = nome(t)
    if q < sys.float_info.min:
        # a subnormal q carries fewer digits than the small modulus needs
        raise SolverError(
            f"nome exp(-pi * {t:g}) underflows for alpha={alpha}")
    q2 = q * q
    q3, q4 = q2 * q, q2 * q2
    q6, q8 = q3 * q3, q4 * q4
    s2 = 1.0 + q2 + q6 + q6 * q6          # theta2 / (2 q^(1/4))
    s3 = 2.0 * q * (1.0 + q3 + q8)        # theta3 - 1
    s4 = 2.0 * q * (q3 - 1.0 - q8)        # theta4 - 1
    theta3 = 1.0 + s3
    k_small = 4.0 * math.sqrt(q) * (s2 / theta3) ** 2
    k_large = ((1.0 + s4) / theta3) ** 2
    # sum n x^n / (1 - x^n) at x = q^2, to far below an ulp of its 24 q
    # companion in K - E
    lambert, n, xn = 0.0, 1, q2
    while xn > 1e-17 * q:
        lambert += n * xn / (1.0 - xn)
        n += 1
        xn *= q2
    big_k = 0.5 * math.pi * theta3 * theta3
    # (K - E) K = (pi^2 / 12) (theta2^4 + theta3^4 - P(q^2)), with
    # theta3^4 - 1 and 1 - P(q^2) written out, so no term cancels
    k_minus_e = math.pi ** 2 / 12.0 * (
        16.0 * q * s2 ** 4 + s3 * (4.0 + s3 * (6.0 + s3 * (4.0 + s3)))
        + 24.0 * lambert) / big_k
    # E(k_large) by the Legendre relation, K(k_large) being t K
    e_large = 0.5 * math.pi / big_k + t * k_minus_e
    if abs(agm(1.0, k_large) / agm(1.0, k_small) - t) > _TOL_ALPHA * t:
        raise SolverError(f"residual K'/K - alpha above {_TOL_ALPHA:g} "
                          f"relative for alpha={alpha}")
    if alpha >= 1.0:
        return EllipticParams(alpha, k_small, k_large,
                              2.0 * (math.log1p(s4) - math.log1p(s3)),
                              big_k, alpha * big_k, big_k - k_minus_e,
                              e_large, q)
    return EllipticParams(alpha, k_large, k_small, math.log(k_small),
                          big_k / alpha, big_k, e_large, big_k - k_minus_e,
                          nome(alpha))
