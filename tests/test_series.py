"""Series and products: direct summation against elliptic closed forms."""

import math

import pytest

import elliptic_oracle as oracle
from logtrig import (AccuracyError, DomainError, cn_imag_third,
                     cosh_third_sum, gamma_fn, lambert_alternating,
                     lambert_plain, modulus_from_alpha,
                     product_one_minus, product_one_plus, sinh2_sum_integer,
                     sinh2_sum_odd, sqrt2_cosh_sum_bilateral,
                     sqrt2_cosh_sum_odd)

SQRT3 = math.sqrt(3.0)
ALPHAS = (0.5, 0.8, 1.0, 1.5, SQRT3, 2.0, 3.0)

# 30-digit references for cn(i K'/3, k)
CN_THIRD = {1.0: 1.21156503127726106, SQRT3: 1.46788982501387056,
            2.0: 1.61927271477388609}
LAMBERT_EVEN_1 = 0.00187443047777494092
LAMBERT_ODD_1 = 0.0452465623778957743

ALL_SERIES = (product_one_minus, product_one_plus, lambert_alternating,
              sinh2_sum_integer, sinh2_sum_odd, sqrt2_cosh_sum_odd,
              sqrt2_cosh_sum_bilateral, cosh_third_sum)


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("series", ALL_SERIES)
def test_direct_matches_closed(series, alpha):
    sv = series(alpha)
    closed = oracle.SERIES_CLOSED_FORMS[series.__name__](
        modulus_from_alpha(alpha))
    assert sv.tail_bound >= 0.0
    assert sv.terms_used >= 1
    assert abs(sv.direct - closed) <= max(1e-12, 10.0 * sv.tail_bound)


def test_lambert_alternating_tight():
    closed = oracle.SERIES_CLOSED_FORMS["lambert_alternating"]
    sv = lambert_alternating(1.0)
    assert abs(sv.direct - closed(modulus_from_alpha(1.0))) < 1e-13
    ep = modulus_from_alpha(2.0)
    assert closed(ep) == ep.big_k / (2 * math.pi) - 0.25


def test_large_alpha_limits():
    alpha = 12.0
    assert abs(product_one_minus(alpha).direct - 1.0) < 1e-30
    assert abs(product_one_plus(alpha).direct - 1.0) < 1e-15
    assert abs(lambert_alternating(alpha).direct) < 1e-15
    assert abs(sinh2_sum_integer(alpha).direct) < 1e-30
    assert abs(sinh2_sum_odd(alpha).direct) < 1e-14
    assert abs(sqrt2_cosh_sum_odd(alpha).direct) < 1e-3
    assert abs(cosh_third_sum(alpha).direct) < 1e-4
    # bilateral sum approaches its central term
    assert abs(sqrt2_cosh_sum_bilateral(alpha).direct
               - (math.sqrt(2.0) + 1.0)) < 1e-6


def test_sinh_split_identity():
    # splitting even/odd indices: sum over n of 1/sinh^2(pi a n) equals the
    # odd-index half-argument sum at 2a plus the integer sum at 2a
    for alpha in (0.5, 1.0):
        total = sinh2_sum_integer(alpha).direct
        assert abs(total - (sinh2_sum_odd(2.0 * alpha).direct
                            + sinh2_sum_integer(2.0 * alpha).direct)) < 1e-12


def test_cn_imag_third_reference_values():
    for alpha, ref in CN_THIRD.items():
        value = cn_imag_third(modulus_from_alpha(alpha))
        assert abs(value - ref) < 1e-12
        assert value > 1.0


def test_cn_consistency_with_direct_sum():
    # cn from the sum against cn by descending Landen steps
    for alpha in (1.0, SQRT3, 2.0):
        ep = modulus_from_alpha(alpha)
        ref = oracle.cn_imag_third(ep.k, ep.k_prime)
        assert abs(cn_imag_third(ep) - ref) <= 1e-14 * ref


def test_lambert_plain():
    sv = lambert_plain(1.0)
    assert abs(sv.direct - LAMBERT_EVEN_1) < 1e-15
    sv_odd = lambert_plain(1.0, odd=True)
    assert abs(sv_odd.direct - LAMBERT_ODD_1) < 1e-15
    assert lambert_plain(30.0).direct < 1e-25
    # dropped tail is controlled by the geometric majorant
    assert sv.tail_bound < 1e-16
    with pytest.raises(DomainError):
        lambert_plain(0.0)


def test_gamma_basic_values():
    assert gamma_fn(1.0) == pytest.approx(1.0, rel=1e-14)
    assert gamma_fn(2.0) == pytest.approx(1.0, rel=1e-14)
    assert gamma_fn(5.0) == pytest.approx(24.0, rel=1e-13)
    assert gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-13)
    assert gamma_fn(0.25) == pytest.approx(3.62560990822190831, rel=1e-13)
    assert gamma_fn(1.0 / 3.0) == pytest.approx(2.67893853470774763, rel=1e-13)


def test_gamma_reflection():
    for i in range(1, 20):
        x = i / 20.0
        lhs = gamma_fn(x) * gamma_fn(1.0 - x)
        rhs = math.pi / math.sin(math.pi * x)
        assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


def test_gamma_domain():
    for x in (0.0, -1.5, math.nan, math.inf):
        with pytest.raises(DomainError):
            gamma_fn(x)


def test_series_reject_bad_alpha():
    with pytest.raises(DomainError):
        product_one_minus(-1.0)


def test_product_past_its_term_limit_raises():
    # at alpha = 1e-4 the factors 1 - exp(-2 pi alpha n) leave the summation
    # floor only after about 62,000 terms
    with pytest.raises(AccuracyError,
                       match="product_one_minus did not converge in 20000 terms"):
        product_one_minus(1e-4)


def test_sum_that_starts_past_its_term_limit_raises():
    # DISC-L1/L2 leave out the poles their path encloses, more than 20,000
    # below alpha = 5.5e-6: an AccuracyError, where an unbound name raised
    with pytest.raises(AccuracyError,
                       match="lambert_plain did not converge in 0 terms") as info:
        lambert_plain(3e-6, first=23_000)
    assert info.value.error_estimate == math.inf
