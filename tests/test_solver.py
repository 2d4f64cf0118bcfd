"""Modulus solver: inverting alpha = K'/K."""

import math
import random

import pytest

from logtrig import (DomainError, SolverError, alpha_from_modulus,
                     modulus_from_alpha)

# classical singular moduli: alpha = sqrt(2) gives sqrt(2)-1,
# alpha = sqrt(3) gives (sqrt(3)-1)/(2 sqrt(2)), alpha = 2 gives 3-2 sqrt(2)
K_ALPHA_SQRT2 = math.sqrt(2.0) - 1.0
K_ALPHA_SQRT3 = (math.sqrt(3.0) - 1.0) / (2.0 * math.sqrt(2.0))
K_ALPHA_2 = 3.0 - 2.0 * math.sqrt(2.0)


def test_alpha_one_is_self_dual():
    ep = modulus_from_alpha(1.0)
    assert abs(ep.k - 1 / math.sqrt(2)) < 1e-12


def test_singular_values():
    assert abs(modulus_from_alpha(math.sqrt(2.0)).k - K_ALPHA_SQRT2) < 1e-10
    assert abs(modulus_from_alpha(math.sqrt(3.0)).k - K_ALPHA_SQRT3) < 1e-10
    ep = modulus_from_alpha(2.0)
    assert abs(ep.k - K_ALPHA_2) < 1e-10
    # the ratio test is the defining check
    assert abs(ep.big_k_prime / ep.big_k - 2.0) < 1e-12


def test_alpha_from_modulus_values():
    assert abs(alpha_from_modulus(1 / math.sqrt(2)) - 1.0) < 1e-14
    assert alpha_from_modulus(0.9) < 1.0 < alpha_from_modulus(0.3)


def test_round_trip_on_log_grid():
    n = 25
    for i in range(n + 1):
        alpha = 0.25 * (6.0 / 0.25) ** (i / n)
        back = alpha_from_modulus(modulus_from_alpha(alpha).k)
        assert abs(back - alpha) <= 1e-11 * alpha


def test_round_trip_single_example():
    assert abs(alpha_from_modulus(modulus_from_alpha(0.7).k) - 0.7) < 1e-12


def test_modulus_monotone_in_alpha():
    grid = [0.3, 0.5, 0.8, 1.0, 1.4, 2.0, 3.0, 5.0]
    ks = [modulus_from_alpha(a).k for a in grid]
    assert all(k1 > k2 for k1, k2 in zip(ks, ks[1:]))


def test_extreme_alpha_moduli():
    ep = modulus_from_alpha(12.0)
    assert 0.0 < ep.k < 1e-7
    assert abs(ep.big_k_prime / ep.big_k - 12.0) < 1e-11 * 12.0
    tiny = modulus_from_alpha(0.1)
    assert tiny.k_prime < 1e-5
    # the ratio check uses the accurately solved small modulus; the round
    # trip through k alone cannot resolve alpha this far out
    assert abs(tiny.big_k_prime / tiny.big_k - 0.1) < 1e-13


def test_unrepresentable_modulus_pair_is_refused():
    # one of (k, k') would round onto 1.0 for extreme ratios
    for alpha in (0.05, 16.0):
        with pytest.raises(SolverError):
            modulus_from_alpha(alpha)


def test_solver_tolerance_honoured():
    for alpha in (0.3, 1.0, 2.5):
        ep = modulus_from_alpha(alpha)
        assert abs(ep.big_k_prime / ep.big_k - alpha) <= 1e-12 * alpha


def test_domain_errors():
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            modulus_from_alpha(bad)
    for bad in (0.0, 1.0):
        with pytest.raises(DomainError):
            alpha_from_modulus(bad)


def test_modulus_matches_mpmath():
    # independent oracle: k = theta2^2/theta3^2 and k' = theta4^2/theta3^2
    # at q = exp(-pi alpha), in 40-digit arithmetic
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(2012)
    with mpmath.workdps(40):
        for _ in range(200):
            alpha = 0.1 * 120.0 ** rng.random()
            q = mpmath.exp(-mpmath.pi * alpha)
            theta3 = mpmath.jtheta(3, 0, q)
            k = float((mpmath.jtheta(2, 0, q) / theta3) ** 2)
            k_prime = float((mpmath.jtheta(4, 0, q) / theta3) ** 2)
            ep = modulus_from_alpha(alpha)
            assert abs(ep.k - k) <= 1e-14 * k, alpha
            assert abs(ep.k_prime - k_prime) <= 1e-14 * k_prime, alpha
