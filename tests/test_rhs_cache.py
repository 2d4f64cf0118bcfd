"""The per-alpha cache of the elliptic bundle behind the K-based closed
forms, and a pin of every closed form's digits on and off the default grids."""

import hashlib
import importlib
import math
import random
from collections import Counter

import pytest

from logtrig import case_by_id, catalog, evaluate_rhs, modulus_from_alpha, verify_case
from logtrig.catalog import ALPHA_GRID, default_params_grid

catalog_module = importlib.import_module("logtrig.catalog")
solver_module = importlib.import_module("logtrig.solver")

# the closed forms that read k, k', K and E through the cache, and those
# that solve at every call
CACHED = ("T1-A", "T1-B", "T3-A", "T3-B", "T4-A", "T4-B", "S3-T5A", "S3-T5B")
SOLVED_PER_ROW = ("T2", "DISC-CONTOUR")


def alpha_draw(seed, n=300, lo=0.1, hi=12.0):
    """n alpha, one log-uniform in each of n equal slices of [log lo,
    log hi): the alpha of the benchmark's closed-forms workload."""
    rng = random.Random(seed)
    span = math.log(hi / lo)
    return [lo * math.exp(span * (i + rng.random()) / n) for i in range(n)]


ALPHAS = sorted(set(alpha_draw(1)) | set(ALPHA_GRID))


@pytest.fixture
def fresh_bundles():
    """An empty cache before and after the test: no bundle solved earlier
    is read, and none solved under a patched solver or agm is left."""
    catalog_module._elliptic.cache_clear()
    yield
    catalog_module._elliptic.cache_clear()


def in_domain_params(case):
    for params in default_params_grid(case, alpha_grid=ALPHAS):
        if case.domain({**case.fixed_params, **params}):
            yield params


def test_each_alpha_is_solved_once_but_by_t2(monkeypatch, fresh_bundles):
    solves = Counter()

    def counting(alpha):
        solves[alpha] += 1
        return modulus_from_alpha(alpha)

    monkeypatch.setattr(catalog_module, "modulus_from_alpha", counting)
    for case in catalog():
        for params in in_domain_params(case):
            evaluate_rhs(case, params)

    def alphas(case_id):
        return [params["alpha"] for params in in_domain_params(case_by_id(case_id))]

    expected = Counter({alpha for case_id in CACHED for alpha in alphas(case_id)})
    for case_id in SOLVED_PER_ROW:
        expected.update(alphas(case_id))
    assert solves == expected
    # the draw starts below every cached form's lower alpha bound
    assert len(ALPHAS) > len(set(solves)) > 300


def test_cached_bundle_is_a_fresh_solve(fresh_bundles):
    for alpha in ALPHAS:
        cached = catalog_module._elliptic(alpha)
        assert cached._asdict() == modulus_from_alpha(alpha)._asdict()
        assert catalog_module._elliptic(alpha) is cached


def test_failed_solve_is_not_cached(fresh_bundles):
    # the nome of alpha = 300 underflows: every call raises again
    for _ in range(2):
        row = verify_case(case_by_id("T1-A"), {"alpha": 300.0})
        assert row.status == "error" and "underflows" in row.detail, row
    assert catalog_module._elliptic.cache_info().currsize == 0


def test_cached_forms_run_the_agm_check(monkeypatch, fresh_bundles):
    # agm patched as in test_agm_residual_refuses_a_wrong_modulus
    agm = solver_module.agm
    monkeypatch.setattr(solver_module, "agm", lambda a, b: agm(a, b) * (1.0 + 1e-10 * b))
    row = verify_case(case_by_id("T1-A"), {"alpha": 2.0})
    assert row.status == "error" and row.detail.startswith("residual"), row


def closed_form_payload() -> str:
    """Each in-domain point of every case over the default grids and ALPHAS,
    as ``case|name=value,... rhs`` lines with 17 significant digits: the
    payload of the benchmark's closed-forms workload at seed 1."""
    def text(value):
        if isinstance(value, complex):
            return "%s%+sj" % (format(value.real, ".17g"), format(value.imag, ".17g"))
        return format(value, ".17g")

    lines = []
    for case in catalog():
        for params in in_domain_params(case):
            key = ",".join("%s=%s" % (name, format(value, ".17g"))
                           for name, value in sorted(params.items()))
            lines.append("%s|%s %s" % (case.id, key, text(evaluate_rhs(case, params))))
    return "\n".join(lines)


def test_closed_form_payload_is_pinned(fresh_bundles):
    # 5,887 closed forms, read from a cold cache and then from a warm one
    for _ in ("cold", "warm"):
        payload = closed_form_payload().encode()
        assert hashlib.sha256(payload).hexdigest() == (
            "19464ca4752bf49e49cd58ee88d48e30268b27a44c3db342298d2337a4d9865e")
