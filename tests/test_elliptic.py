"""Elliptic core: the AGM, the bundle, and the AGM oracle for K and E."""

import math
import random

import pytest

from elliptic_oracle import (complementary_modulus, complete_e, complete_k,
                             oracle_k_quadrature)
from logtrig import DomainError, agm, modulus_from_alpha, nome

# references computed independently with 30-digit arithmetic
K_INV_SQRT2 = 1.85407467730137192
E_INV_SQRT2 = 1.3506438810476755
K_03 = 1.6080486199305128
K_095 = 2.59001123087450122
K_09999 = 5.64514821682969279
AGM_1_2 = 1.45679103104690687
AGM_1_HALF = 0.728395515523453435


def test_agm_fixed_points():
    assert agm(1.0, 1.0) == 1.0
    assert agm(4.0, 4.0) == 4.0


def test_agm_reference_values():
    assert abs(agm(1.0, 2.0) - AGM_1_2) < 1e-15 * AGM_1_2
    assert abs(agm(1.0, 0.5) - AGM_1_HALF) < 1e-15


def test_agm_symmetry_and_scaling():
    rng = random.Random(7)
    for _ in range(50):
        a = math.exp(rng.uniform(-3, 3))
        b = math.exp(rng.uniform(-3, 3))
        c = math.exp(rng.uniform(-2, 2))
        assert agm(a, b) == agm(b, a)
        assert abs(agm(c * a, c * b) - c * agm(a, b)) <= 1e-14 * c * agm(a, b)


def test_agm_rejects_nonpositive():
    with pytest.raises(DomainError):
        agm(0.0, 1.0)
    with pytest.raises(DomainError):
        agm(1.0, -2.0)


def test_complete_k_values():
    assert complete_k(0.0) == pytest.approx(math.pi / 2, abs=1e-15)
    assert abs(complete_k(1 / math.sqrt(2)) - K_INV_SQRT2) < 1e-14
    assert abs(complete_k(0.3) - K_03) < 1e-14
    assert abs(complete_k(0.9999) - K_09999) < 1e-13


def test_complete_k_monotone_and_domain():
    grid = [i / 50 for i in range(50)]
    values = [complete_k(k) for k in grid]
    assert all(v2 > v1 for v1, v2 in zip(values, values[1:]))
    assert complete_k(0.9999) > complete_k(0.999)
    with pytest.raises(DomainError):
        complete_k(1.0)
    with pytest.raises(DomainError):
        complete_k(-0.1)


def test_complete_e_values():
    assert complete_e(0.0) == pytest.approx(math.pi / 2, abs=1e-15)
    assert complete_e(1.0) == 1.0
    assert abs(complete_e(1 / math.sqrt(2)) - E_INV_SQRT2) < 1e-14


def test_complete_e_monotone_and_domain():
    grid = [i / 50 for i in range(51)]
    values = [complete_e(k) for k in grid]
    assert all(v2 < v1 for v1, v2 in zip(values, values[1:]))
    with pytest.raises(DomainError):
        complete_e(1.0000001)
    with pytest.raises(DomainError):
        complete_e(-0.5)


def test_oracle_matches_agm_route():
    assert oracle_k_quadrature(0.0) == pytest.approx(math.pi / 2, abs=1e-13)
    assert abs(oracle_k_quadrature(0.3) - complete_k(0.3)) < 1e-12
    assert abs(oracle_k_quadrature(0.95) - complete_k(0.95)) < 1e-11
    for k in (0.1, 0.5, 0.7071067811865476, 0.9, 0.99, 0.999):
        agm_route = complete_k(k)
        assert abs(oracle_k_quadrature(k) - agm_route) < 1e-11 * agm_route


def test_bundle_self_dual_point():
    ep = modulus_from_alpha(1.0)
    assert ep.alpha == 1.0
    assert abs(ep.k_prime - 1 / math.sqrt(2)) < 1e-15
    assert abs(ep.big_k - ep.big_k_prime) < 1e-14
    assert abs(ep.big_e - ep.big_e_prime) < 1e-14


def test_params_invariants_on_random_moduli():
    # the Legendre relation on the AGM values; the nome route takes E' from
    # it, so it is checked on the oracle, not on the bundle
    rng = random.Random(20260810)
    for _ in range(100):
        k = rng.uniform(0.01, 0.99)
        kp = complementary_modulus(k)
        assert abs(k ** 2 + kp ** 2 - 1.0) < 1e-14
        big_k, big_k_prime = complete_k(k), complete_k(kp, k)
        legendre = (complete_e(k) * big_k_prime + complete_e(kp, k) * big_k
                    - big_k * big_k_prime - math.pi / 2)
        assert abs(legendre) < 1e-12


def test_nome():
    assert nome(1.0) == math.exp(-math.pi)
    for alpha in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            nome(alpha)


def test_complementary_modulus_near_one():
    # the (1-k)(1+k) form keeps k' meaningful where 1 - k*k would be noise
    k = 1.0 - 1e-12
    kp = complementary_modulus(k)
    assert 1.4e-6 < kp < 1.5e-6
    assert abs(kp * kp + k * k - 1.0) < 1e-15
