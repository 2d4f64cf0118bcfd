"""Numerical verification of log-trigonometric integral identities.

The package evaluates integrals whose integrands mix x with log(2 cos x),
log(2 sin x) or log(2 sin(x/2)) and checks them against closed forms built
from complete elliptic integrals, Jacobi elliptic values and q-series.
"""

__version__ = "0.1.0"

from .elliptic import EllipticParams, agm, nome
from .errors import AccuracyError, DomainError, SolverError
from .catalog import (IdentityCase, VerificationRow, catalog, case_by_id,
                      contour_path_points, contour_trace, evaluate_lhs,
                      evaluate_rhs, verify_case)
from .quadrature import (QuadratureResult, integrate_adaptive,
                         integrate_endpoint_oscillatory)
from .report import RunConfig, VerificationReport, render_report, run_verification
from .series import (SeriesValue, cn_imag_third, cosh_third_sum, gamma_fn,
                     lambert_alternating, lambert_plain, product_one_minus,
                     product_one_plus, sinh2_sum_integer, sinh2_sum_odd,
                     sqrt2_cosh_sum_bilateral, sqrt2_cosh_sum_odd)
from .solver import modulus_from_alpha

__all__ = [
    "__version__",
    "AccuracyError", "DomainError", "SolverError",
    "EllipticParams", "agm", "nome", "modulus_from_alpha",
    "SeriesValue", "product_one_minus", "product_one_plus",
    "lambert_alternating", "sinh2_sum_integer", "sinh2_sum_odd",
    "sqrt2_cosh_sum_odd", "sqrt2_cosh_sum_bilateral", "cosh_third_sum",
    "cn_imag_third", "lambert_plain", "gamma_fn",
    "QuadratureResult", "integrate_adaptive",
    "integrate_endpoint_oscillatory",
    "IdentityCase", "VerificationRow", "catalog", "case_by_id",
    "evaluate_lhs", "evaluate_rhs", "verify_case", "contour_trace",
    "contour_path_points",
    "RunConfig", "VerificationReport", "run_verification", "render_report",
]
