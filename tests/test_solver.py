"""Modulus solver: inverting alpha = K'/K."""

import importlib
import math
import random
import sys

import pytest

from elliptic_oracle import alpha_from_modulus, complete_e, complete_k
from logtrig import (DomainError, SolverError, case_by_id, cn_imag_third,
                     evaluate_rhs, modulus_from_alpha, nome, verify_case)

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


def test_singular_values_are_an_exact_oracle():
    # At alpha = sqrt(n), k is algebraic and K a product of Gamma values
    # (Borwein & Borwein, Pi and the AGM, 1987).  Each bound sits a little
    # above the error measured on the nome route; k at alpha = 3 is the
    # worst, 1.9e-15, and its reference itself cancels
    s2, s3, s6 = math.sqrt(2.0), math.sqrt(3.0), math.sqrt(6.0)
    moduli = {1.0: 1.0 / s2, s3: (s6 - s2) / 4.0, 2.0: 3.0 - 2.0 * s2,
              3.0: (s3 - 1.0) * (s2 - 3.0 ** 0.25) / 2.0}
    for alpha, k in moduli.items():
        ep = modulus_from_alpha(alpha)
        k_prime = math.sqrt((1.0 - k) * (1.0 + k))
        assert abs(ep.k - k) <= 4e-15 * k, alpha
        assert abs(ep.k_prime - k_prime) <= 4e-15 * k_prime, alpha
    big_k1 = math.gamma(0.25) ** 2 / (4.0 * math.sqrt(math.pi))
    big_k3 = 3.0 ** 0.25 * math.gamma(1.0 / 3.0) ** 3 / (2.0 ** (7.0 / 3.0) * math.pi)
    e1 = big_k1 / 2.0 + math.pi / (4.0 * big_k1)    # Legendre's relation at k1
    ep1, ep3 = modulus_from_alpha(1.0), modulus_from_alpha(s3)
    assert abs(ep1.big_k - big_k1) <= 1e-15 * big_k1     # measured 3.6e-16
    assert abs(ep3.big_k - big_k3) <= 1e-15 * big_k3     # 2.8e-16
    assert abs(ep1.big_e - e1) <= 1e-15 * e1             # 3.3e-16
    # EX-1, EX-2 and EX-3 are T1-B, T2 and S3-T6 at their alpha, summed in
    # closed form: 0, 2 and 1 ulps apart
    for example, general, alpha in (("EX-1", "T1-B", s3), ("EX-2", "T2", 2.0),
                                    ("EX-3", "S3-T6", s3)):
        value = evaluate_rhs(case_by_id(example), {})
        derived = evaluate_rhs(case_by_id(general), {"alpha": alpha})
        assert abs(value - derived) <= 4.0 * math.ulp(value), example


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


def test_extreme_alpha_gives_finite_bundles():
    # one of (k, k') rounds onto 1.0 here; the nome route never forms it
    # from the other, so every field stays finite and accurate
    for alpha in (0.05, 16.0, 20.0, 40.0, 80.0):
        ep = modulus_from_alpha(alpha)
        assert all(math.isfinite(v) for v in ep._asdict().values()), alpha
        assert abs(ep.big_k_prime / ep.big_k - alpha) <= 1e-13 * alpha
    ep = modulus_from_alpha(20.0)
    assert ep.k_prime == 1.0 and ep.log_k_prime < 0.0


def test_underflowing_nome_is_refused():
    # exp(-pi alpha) underflows: a SolverError, so an error row, not a
    # ValueError from log(0)
    for alpha in (300.0, 1.0 / 300.0):
        with pytest.raises(SolverError):
            modulus_from_alpha(alpha)
    row = verify_case(case_by_id("T2"), {"alpha": 300.0})
    assert row.status == "error" and "underflows" in row.detail


def test_agm_residual_refuses_a_wrong_modulus(monkeypatch):
    # agm(1, k') / agm(1, k) = K'/K is the one independent check of a solve.
    # Scaling agm(1, m) by 1 + 1e-10 m moves the ratio by about
    # 1e-10 (k' - k) relative, far above the 1e-13 accepted, on either side
    # of alpha = 1
    solver = importlib.import_module("logtrig.solver")
    agm = solver.agm
    monkeypatch.setattr(solver, "agm", lambda a, b: agm(a, b) * (1.0 + 1e-10 * b))
    for alpha in (0.5, 2.0):
        with pytest.raises(SolverError, match="residual K'/K - alpha above 1e-13"):
            modulus_from_alpha(alpha)
    row = verify_case(case_by_id("T2"), {"alpha": 2.0})
    assert row.status == "error" and row.detail.startswith("residual")


def test_nome_route_matches_agm_oracle():
    # stdlib-only cross-check: K, K', E, E' of the nome route against the
    # AGM of the route's own modulus pair
    n = 24
    for i in range(n):
        alpha = 0.1 * 120.0 ** (i / (n - 1))
        ep = modulus_from_alpha(alpha)
        k, kp = ep.k, ep.k_prime
        for got, ref in ((ep.big_k, complete_k(k, kp)),
                         (ep.big_k_prime, complete_k(kp, k)),
                         (ep.big_e, complete_e(k, kp)),
                         (ep.big_e_prime, complete_e(kp, k))):
            assert abs(got - ref) <= 1e-14 * ref, alpha
        assert abs(k * k + kp * kp - 1.0) <= 1e-15
        assert abs(ep.log_k_prime - math.log(kp)) <= 4e-16
        assert ep.q == nome(alpha)


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
    # at q = exp(-pi alpha), then K, E, K', E' and cn(i K'/3, k) from them,
    # with digits to spare for log k' where k' rounds to 1.  Rounding
    # pi * alpha in double precision moves q by up to pi alpha / 2 ulps,
    # hence the tolerance that grows with alpha or 1/alpha beyond 14.
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(2012)
    for _ in range(200):
        alpha = 0.02 * 4000.0 ** rng.random()
        t = max(alpha, 1.0 / alpha)
        with mpmath.workdps(30 + int(1.4 * t)):
            q = mpmath.exp(-mpmath.pi * alpha)
            theta3 = mpmath.jtheta(3, 0, q)
            k = (mpmath.jtheta(2, 0, q) / theta3) ** 2
            k_prime = (mpmath.jtheta(4, 0, q) / theta3) ** 2
            big_k_prime = mpmath.ellipk(k_prime ** 2)
            ref = {"k": k, "k_prime": k_prime,
                   "log_k_prime": mpmath.log(k_prime),
                   "big_k": mpmath.ellipk(k ** 2),
                   "big_e": mpmath.ellipe(k ** 2),
                   "big_k_prime": big_k_prime,
                   "big_e_prime": mpmath.ellipe(k_prime ** 2),
                   "cn": mpmath.ellipfun("cn", 1j * big_k_prime / 3,
                                         m=k ** 2).real}
        ep = modulus_from_alpha(alpha)
        got = dict(ep._asdict(), cn=cn_imag_third(ep))
        tol = max(1e-14, math.pi * t * sys.float_info.epsilon)
        for name, value in ref.items():
            assert abs(got[name] - value) <= tol * abs(value), (alpha, name)
