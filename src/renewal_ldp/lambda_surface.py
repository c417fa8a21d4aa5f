"""The bivariate limit function of the scaled passage pair and its calculus.

For a holding-time CGF phi, the limit function is

    L(a1, a2) = integral_0^1 phi(a1 + a2*y) dy

on its effective domain, +inf outside.  This module evaluates L, its gradient
and its Hessian from the model table's segment kernel (the means of phi, of
phi' and (1 - y) phi', and of phi'', (1 - y) phi'' and (1 - y)^2 phi'' over the
segment, in one pass) and the Hessian at the origin, decides membership of
D(L) and of its interior, and reports the regularity facts (lower
semicontinuity and steepness) that follow from the model's domain case and
decide which form of the large-deviation principle is certified.  The defining integral itself is
left to the oracles: :func:`quadrature.adaptive_gauss_legendre` of
phi(a1 + a2*y) over y in (0, 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .models import INF, HoldingTimeModel, LscCase

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class CovarianceStructure:
    """phi''(0) with the origin Hessian of L and its inverse."""

    phi2: float
    C: np.ndarray
    C_inv: np.ndarray


def in_lambda_domain(model: HoldingTimeModel, a1: float, a2: float) -> bool:
    """Membership in D(L), the domain of the limit of the scaled log-MGFs.

    Depends on the domain case: with a closed phi-boundary or an open
    integrable one, D(L) is the whole tilt set {a2 >= 0, a1 + a2 in D(phi)} u
    {a2 < 0, a1 <= abar}; with an open non-integrable boundary it is the
    interior of the tilt set.  At a2<0 with a1 exactly at an open boundary
    the integral is finite only in the integrable case.

    The rule is not symmetric under the reflection (a1, a2) -> (a1 + a2, -a2)
    on an open boundary, because the limit is not: in the weighted sum the
    first holding time carries the tilt a1 + a2, so at a2 > 0 with a1 + a2 on
    the boundary every MGF is infinite, while at a2 < 0 every tilt of the
    sum lies strictly below a1.  The reflection of L holds off that edge only.
    """
    dom = model.domain
    if a2 >= 0.0:
        return dom.contains(a1 + a2)
    # a2 < 0: the integral runs over [a1+a2, a1]
    return a1 < dom.boundary or (a1 == dom.boundary and dom.integrable_at_boundary)


def in_lambda_domain_interior(model: HoldingTimeModel, a1: float, a2: float) -> bool:
    """Strict-interior membership of D(L): the segment's top lies below the boundary."""
    return max(a1 + a2, a1) < model.domain.boundary


def lambda_eval(model: HoldingTimeModel, a1: float, a2: float) -> float:
    """Extended-real value of the limit function at the tilt (a1, a2), from the model's closed form."""
    if not in_lambda_domain(model, a1, a2):
        return INF
    if a2 == 0.0:
        return model.phi(a1)
    return model.segment(a1, a2)[0]


def _interior_width(model: HoldingTimeModel, a1: float, a2: float) -> float | None:
    """fl(a1 + a2) - a1 on the interior of D(L) or a closed face at a2 != 0, else None: the one domain check."""
    a2 = (a1 + a2) - a1  # the width of the segment that phi' is averaged over, a few ulps or 1e300
    dom = model.domain
    top = max(a1, a1 + a2)
    return a2 if top < dom.boundary or (dom.boundary_closed and a2 != 0.0 and top == dom.boundary) else None


def lambda_grad(model: HoldingTimeModel, a1: float, a2: float) -> tuple[float, float]:
    """Gradient of the limit function on the interior of its domain, at a2 = fl(a1 + a2) - a1.

    d1L and d2L are the means of phi' and y phi' over the segment, so on a
    closed boundary face (a2 != 0 and the segment's top at abar) it is the
    one-sided gradient from inside: phi' is infinite at abar but integrable.
    For a2 >= 0, d2L is the mean of phi' less that of (1 - y) phi', at most half of it.
    """
    if (width := _interior_width(model, a1, a2)) is None:
        raise ValueError(f"tilt ({a1}, {a2}) is not interior to the domain")
    _, d1, tail, _ = model.segment(a1, width)
    return d1, (tail if width < 0.0 else d1 - tail)


def _second_order(model: HoldingTimeModel, a1: float, a2: float) -> tuple | None:
    """(a2, L, gradient, Hessian) at a2 = fl(a1 + a2) - a1 <= 0, else None; a2 = 0 is the caller's to refuse."""
    # a2 = 0 is a segment of no width: line duals take it, rate_ld's ascent (a2 < 0 off the midline) does not;
    # the Hessian is as model.segment gives it
    if (a2 := _interior_width(model, a1, a2)) is None or a2 > 0.0:
        return None
    value, d1, tail, hessian = model.segment(a1, a2)
    return a2, value, (d1, tail), hessian


def hessian_origin(model: HoldingTimeModel) -> CovarianceStructure:
    """Exact origin Hessian phi''(0)*[[1,1/2],[1/2,1/3]] and its inverse."""
    import numpy as np  # imported on first use: the rest of the module is scalar

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
    full_ldp_certificate: str  # gartner_ellis_c | gradient_image | weak_only


def regularity_report(model: HoldingTimeModel) -> RegularityReport:
    """Lower semicontinuity, steepness, and the resulting LDP certificate.

    Steepness of the bivariate limit function holds iff D(phi) is open; a
    closed boundary breaks it.  Lower semicontinuity fails exactly in the
    open-integrable case.  The exponential kind gets its full LDP from the
    gradient image covering the interior of the support cone.
    """
    case = model.domain.case
    lsc = case is not LscCase.OPEN_INTEGRABLE
    steep = case is not LscCase.CLOSED_BOUNDARY
    if lsc and steep:  # L is differentiable on the interior, so steep is essentially smooth
        certificate = "gartner_ellis_c"
    elif model.kind == "exponential":
        certificate = "gradient_image"
    else:
        certificate = "weak_only"
    return RegularityReport(lsc=lsc, lsc_case=case, steep=steep, full_ldp_certificate=certificate)


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
