"""The bivariate limit function of the scaled passage pair and its calculus.

For a holding-time CGF phi, the limit function is

    L(a1, a2) = integral_0^1 phi(a1 + a2*y) dy

on its effective domain, +inf outside.  This module evaluates L from the
closed form in the model table, its gradient and Hessian (from phi, phi' and
L itself), decides domain membership, and reports the regularity facts (lower
semicontinuity, steepness, essential smoothness) that decide which form of
the large-deviation principle is certified.  Adaptive quadrature of the
defining integral is kept only as an independent oracle
(``lambda_eval(..., method="quadrature")``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models import INF, HoldingTimeModel, LscCase, classify_domain
from .quadrature import adaptive_gauss_legendre

# below this |a2| the 1/a2 cancellation of the gradient and Hessian formulas
# dominates; use their Taylor branches.  The integral branch loses
# ~1e-16/|a2| absolute accuracy to cancellation, the quadratic Taylor
# truncates at O(a2^3): both stay below ~1e-12 here.
A2_SWITCH = 1e-4


@dataclass(frozen=True)
class CovarianceStructure:
    """phi''(0) with the origin Hessian of L and its inverse."""

    phi2: float
    C: np.ndarray
    C_inv: np.ndarray


def in_tilt_domain(model: HoldingTimeModel, a1: float, a2: float) -> bool:
    """Membership in the set {a2>=0, a1+a2 in D(phi)} u {a2<0, a1 <= abar}."""
    if a2 >= 0.0:
        return model.domain.contains(a1 + a2)
    return a1 <= model.domain.boundary


def in_lambda_domain(model: HoldingTimeModel, a1: float, a2: float) -> bool:
    """Membership in D(L), i.e. finiteness of the defining integral.

    Depends on the domain taxonomy: with a closed phi-boundary or an open
    integrable one, D(L) is the whole tilt set; with an open non-integrable
    boundary it is the interior of the tilt set.  At a2<0 with a1 exactly at
    an open boundary the integral is finite only in the integrable case.
    """
    dom = model.domain
    if a2 >= 0.0:
        return dom.contains(a1 + a2)
    # a2 < 0: the integral runs over [a1+a2, a1]
    return a1 < dom.boundary or (a1 == dom.boundary and dom.integrable_at_boundary)


def in_lambda_domain_interior(model: HoldingTimeModel, a1: float, a2: float, margin: float = 0.0) -> bool:
    """Strict-interior membership of D(L), with an optional safety margin."""
    top = max(a1 + a2, a1)
    return top < model.domain.boundary - margin


def in_finite_x_domain(model: HoldingTimeModel, x: float, a1: float, a2: float) -> bool:
    """Membership in the per-x MGF domain of the weighted-sum representation."""
    dom = model.domain
    if a2 >= 0.0:
        return dom.contains(a1 + a2 * x)
    if float(x).is_integer():
        return dom.contains(a1 + a2)
    return dom.contains(a1 + a2 * (x - math.floor(x)))


def lambda_eval(model: HoldingTimeModel, a1: float, a2: float, method: str = "auto") -> float:
    """Extended-real value of the limit function at the tilt (a1, a2).

    ``method`` is ``auto`` (the model's closed form) or ``quadrature``
    (adaptive Gauss-Legendre over y in (0, 1), the independent oracle).
    """
    if method not in ("auto", "quadrature"):
        raise ValueError(f"unknown method {method!r}; expected 'auto' or 'quadrature'")
    if not in_lambda_domain(model, a1, a2):
        return INF
    if a2 == 0.0:
        return model.phi(a1)
    if method == "quadrature":
        return adaptive_gauss_legendre(lambda y: model.cgf(a1 + a2 * y), 0.0, 1.0, tol=1e-10)
    return model.limit(a1, a2)


def lambda_grad(model: HoldingTimeModel, a1: float, a2: float) -> tuple[float, float]:
    """Gradient of the limit function on the interior of its domain."""
    if not in_lambda_domain_interior(model, a1, a2):
        raise ValueError(f"tilt ({a1}, {a2}) is not interior to the domain")
    if abs(a2) < A2_SWITCH:
        d1, d2, d3 = model.cgf_d1(a1), model.cgf_d2(a1), model.cgf_d3(a1)
        return (d1 + 0.5 * a2 * d2 + a2**2 * d3 / 6.0,
                0.5 * d1 + a2 * d2 / 3.0 + 0.125 * a2**2 * d3)
    top = a1 + a2
    phi_top, phi_lo = model.cgf(top), model.cgf(a1)
    integral = a2 * model.limit(a1, a2)
    return ((phi_top - phi_lo) / a2, (a2 * phi_top - integral) / a2**2)


def lambda_hessian(model: HoldingTimeModel, a1: float, a2: float) -> np.ndarray:
    """Hessian of the limit function at an interior tilt.

    Entries are integral_0^1 y^k phi''(a1+a2*y) dy for k in {0,1,2}, reduced
    to phi and phi' via integration by parts when a2 is not tiny.
    """
    if abs(a2) < A2_SWITCH:
        d2, d3 = model.cgf_d2(a1), model.cgf_d3(a1)
        return np.array([
            [d2 + 0.5 * a2 * d3, 0.5 * d2 + a2 * d3 / 3.0],
            [0.5 * d2 + a2 * d3 / 3.0, d2 / 3.0 + 0.25 * a2 * d3],
        ])
    top = a1 + a2
    dphi_top, dphi_lo = model.cgf_d1(top), model.cgf_d1(a1)
    phi_top, phi_lo = model.cgf(top), model.cgf(a1)
    integral = a2 * model.limit(a1, a2)
    h11 = (dphi_top - dphi_lo) / a2
    h12 = (a2 * dphi_top - (phi_top - phi_lo)) / a2**2
    h22 = dphi_top / a2 - 2.0 * (a2 * phi_top - integral) / a2**3
    return np.array([[h11, h12], [h12, h22]])


def hessian_origin(model: HoldingTimeModel) -> CovarianceStructure:
    """Exact origin Hessian phi''(0)*[[1,1/2],[1/2,1/3]] and its inverse."""
    phi2 = model.cgf_d2(0.0)
    C = phi2 * np.array([[1.0, 0.5], [0.5, 1.0 / 3.0]])
    C_inv = (1.0 / phi2) * np.array([[4.0, -6.0], [-6.0, 12.0]])
    return CovarianceStructure(phi2=phi2, C=C, C_inv=C_inv)


@dataclass(frozen=True)
class RegularityReport:
    """Which route certifies the full large-deviation principle for this model."""

    lsc: bool
    lsc_case: LscCase
    steep: bool
    essentially_smooth: bool
    full_ldp_certificate: str  # gartner_ellis_c | gradient_image | weak_only


def regularity_report(model: HoldingTimeModel) -> RegularityReport:
    """Lower semicontinuity, steepness, and the resulting LDP certificate.

    Steepness of the bivariate limit function holds iff D(phi) is open; a
    closed boundary breaks it.  Lower semicontinuity fails exactly in the
    open-integrable case.  The exponential kind gets its full LDP from the
    gradient image covering the interior of the support cone.
    """
    case = classify_domain(model)
    lsc = case is not LscCase.OPEN_INTEGRABLE
    steep = case is not LscCase.CLOSED_BOUNDARY
    essentially_smooth = steep  # differentiability holds throughout the interior
    if lsc and essentially_smooth:
        certificate = "gartner_ellis_c"
    elif model.kind == "exponential":
        certificate = "gradient_image"
    else:
        certificate = "weak_only"
    return RegularityReport(
        lsc=lsc,
        lsc_case=case,
        steep=steep,
        essentially_smooth=essentially_smooth,
        full_ldp_certificate=certificate,
    )


def poisson_lambda_closed_form(lam: float, a1: float, a2: float) -> float:
    """Closed form of the limit function for exponential holding times.

    Written with x log x independently of the model table, as a reference
    for the table's exponential L.
    """
    if a2 == 0.0:
        return math.log(lam / (lam - a1)) if a1 < lam else INF
    top = a1 + a2
    if a2 > 0.0:
        if top >= lam:
            return INF
    elif a1 > lam:
        return INF
    def xlogx(t):
        return t * math.log(t) if t > 0.0 else 0.0
    return math.log(lam) + 1.0 + (xlogx(lam - top) - xlogx(lam - a1)) / a2
