"""Large-deviation rate functions for the scaled passage pair.

Solves the two-dimensional Legendre-Fenchel transform of the limit function
by damped Newton on the gradient system, with a gradient-ascent fallback, and
provides the specialized closed path for exponential holding times where the
optimal area tilt is the nonzero root of an explicit scalar equation.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np
from scipy.optimize import brentq, minimize_scalar

from .lambda_surface import (
    in_lambda_domain_interior,
    lambda_eval,
    lambda_grad,
    lambda_hessian,
)
from .models import INF, HoldingTimeModel, RateEvaluation, model_of, phi_star

GRAD_TOL = 1e-10
STAGNATION_TOL = 1e-14
MAX_ITER = 200
MAX_HALVINGS = 60


def in_support_cone(z1: float, z2: float) -> bool:
    """The scaled pair lives in {0 <= z2 <= z1} almost surely."""
    return 0.0 <= z2 <= z1


def _objective(model, z1, z2, a1, a2):
    value = lambda_eval(model, a1, a2)
    if value == INF:
        return -INF
    return a1 * z1 + a2 * z2 - value


def rate_ld(model: HoldingTimeModel, z1: float, z2: float) -> RateEvaluation:
    """Bivariate rate function sup_a {a.z - L(a)}.

    Infinite outside the support cone; solved by damped Newton from the
    origin in its interior.  On the cone boundary the supremum may only be
    approached, so the best ascent iterate is reported with converged=False.
    """
    if not in_support_cone(z1, z2):
        return RateEvaluation(INF, method="closed_form")
    on_boundary = z2 == 0.0 or z2 == z1
    result = _newton_solve(model, z1, z2) if not on_boundary else None
    if result is not None:
        return result
    ascent = _ascent_solve(model, z1, z2)
    ascent.on_boundary = on_boundary
    return ascent


def _newton_solve(model, z1, z2) -> Optional[RateEvaluation]:
    z = np.array([z1, z2])
    a = np.zeros(2)
    f = 0.0
    stagnant = 0
    for it in range(1, MAX_ITER + 1):
        grad = z - np.array(lambda_grad(model, a[0], a[1]))
        if np.linalg.norm(grad) <= GRAD_TOL:
            return RateEvaluation(
                max(f, 0.0), argmax_tilt=(a[0], a[1]), iterations=it, method="newton"
            )
        H = lambda_hessian(model, a[0], a[1])
        try:
            step = np.linalg.solve(H, grad)
        except np.linalg.LinAlgError:
            return None
        t = 1.0
        accepted = False
        for _ in range(MAX_HALVINGS):
            cand = a + t * step
            if in_lambda_domain_interior(model, cand[0], cand[1], margin=1e-13):
                f_cand = _objective(model, z1, z2, cand[0], cand[1])
                if f_cand > f - 1e-16:
                    a, f_new = cand, f_cand
                    accepted = True
                    break
            t *= 0.5
        if not accepted:
            # line search stalled at roundoff level; accept if near-stationary
            grad = z - np.array(lambda_grad(model, a[0], a[1]))
            if np.linalg.norm(grad) <= 1e-6:
                return RateEvaluation(
                    max(f, 0.0), argmax_tilt=(a[0], a[1]), iterations=it, method="newton"
                )
            return None
        if abs(f_new - f) < STAGNATION_TOL:
            stagnant += 1
            if stagnant >= 5:
                grad = z - np.array(lambda_grad(model, a[0], a[1]))
                return RateEvaluation(
                    max(f_new, 0.0),
                    argmax_tilt=(a[0], a[1]),
                    converged=bool(np.linalg.norm(grad) <= 1e-6),
                    iterations=it,
                    method="newton",
                )
        else:
            stagnant = 0
        f = f_new
    return None


def _ascent_solve(model, z1, z2) -> RateEvaluation:
    """Projected gradient ascent on a.z - L(a); used off the Newton path.

    Steps shrink to respect the domain; on non-attained suprema (cone
    boundary, non-steep models) the best iterate is reported rather than a
    fabricated infinity.
    """
    a = np.zeros(2)
    f = 0.0
    step_scale = 1.0
    best = RateEvaluation(0.0, argmax_tilt=(0.0, 0.0), converged=False, method="ascent")
    for it in range(1, 4 * MAX_ITER + 1):
        try:
            grad = np.array([z1, z2]) - np.array(lambda_grad(model, a[0], a[1]))
        except ValueError:
            break
        if np.linalg.norm(grad) <= GRAD_TOL:
            return RateEvaluation(
                max(f, 0.0), argmax_tilt=(a[0], a[1]), iterations=it, method="ascent"
            )
        t = step_scale
        moved = False
        for _ in range(MAX_HALVINGS):
            cand = a + t * grad
            if in_lambda_domain_interior(model, cand[0], cand[1], margin=1e-13):
                f_cand = _objective(model, z1, z2, cand[0], cand[1])
                if f_cand > f:
                    a, f = cand, f_cand
                    step_scale = min(t * 2.0, 1e6)
                    moved = True
                    break
            t *= 0.5
        if not moved:
            break
        best = RateEvaluation(
            max(f, 0.0), argmax_tilt=(a[0], a[1]), converged=False, iterations=it, method="ascent"
        )
    return best


def rate_ld_poisson(lambda_param: float, z1: float, z2: float) -> RateEvaluation:
    """Exponential-holding-time rate via the scalar root of g(a2) = a2*z1.

    Valid on the interior of the support cone 0 < z2 < z1.  The nonzero root
    shares the sign of gamma = (2*z2 - z1)/(2*z2*(z1 - z2)); the midline
    2*z2 = z1 collapses to the one-dimensional transform of phi.
    """
    if not (0.0 < z2 < z1):
        raise ValueError("rate_ld_poisson requires 0 < z2 < z1")
    model = model_of("exponential", lambda_param)
    gamma = (2.0 * z2 - z1) / (2.0 * z2 * (z1 - z2))
    if gamma == 0.0:
        a2_star = 0.0
        iterations = 0
    else:
        a2_star, iterations = _g_root(z1, z2, gamma)
    a1_hat = lambda_param - (a2_star * z2 + 1.0) / z1
    value = a1_hat * z1 + a2_star * z2 - lambda_eval(model, a1_hat, a2_star)
    return RateEvaluation(
        max(value, 0.0),
        argmax_tilt=(a1_hat, a2_star),
        iterations=iterations,
        method="poisson_g_root",
    )


def _g(a2: float, z1: float, z2: float) -> float:
    return math.log((a2 * z2 + 1.0) / (a2 * (z2 - z1) + 1.0))


def _g_root(z1: float, z2: float, gamma: float) -> tuple[float, int]:
    """Unique nonzero solution of g(a2) = a2*z1 on the sign(gamma) side of 0."""
    lo_end, hi_end = -1.0 / z2, 1.0 / (z1 - z2)
    width = hi_end - lo_end
    margin = 1e-12 * width
    resid = lambda a2: _g(a2, z1, z2) - a2 * z1
    iterations = 0
    if gamma > 0:
        # residual is negative just right of 0 and +inf at the upper endpoint
        inner = 1e-3
        while resid(inner) >= 0.0 and inner > 1e-14:
            inner *= 0.5
            iterations += 1
        outer = hi_end - margin
        root = brentq(resid, inner, outer, xtol=1e-14, rtol=1e-15)
    else:
        inner = -1e-3
        while resid(inner) <= 0.0 and inner < -1e-14:
            inner *= 0.5
            iterations += 1
        outer = lo_end + margin
        root = brentq(resid, outer, inner, xtol=1e-14, rtol=1e-15)
    return root, iterations


def marginal_I1(model: HoldingTimeModel, z1: float) -> RateEvaluation:
    """Marginal rate of the scaled passage time; equals the transform of phi."""
    return phi_star(model, z1)


def marginal_I2(model: HoldingTimeModel, z2: float, bracket_cap: int = 60) -> RateEvaluation:
    """Marginal rate of the scaled area: inf over z1 >= z2 of the joint rate."""
    if z2 < 0.0:
        return RateEvaluation(INF, method="closed_form")
    mean = model.mean
    if z2 == 0.5 * mean:
        return RateEvaluation(0.0, argmax_tilt=(0.0, 0.0), method="closed_form")

    def objective(z1):
        if z1 <= z2:
            return INF
        return rate_ld(model, z1, z2).value

    # expand a bracket [lo, hi] around a decreasing-then-increasing profile
    center = max(mean, 2.0 * z2, z2 * 1.0000001)
    lo = max(z2 * 1.000001, 1e-12)
    hi = center
    f_hi = objective(hi)
    expansions = 0
    while expansions < bracket_cap:
        f_next = objective(hi * 2.0)
        if f_next > f_hi:
            break
        hi *= 2.0
        f_hi = f_next
        expansions += 1
    if expansions >= bracket_cap:
        return RateEvaluation(f_hi, converged=False, iterations=expansions, method="ascent")
    res = minimize_scalar(objective, bracket=None, bounds=(lo, hi * 2.0), method="bounded",
                          options={"xatol": 1e-10})
    inner = rate_ld(model, float(res.x), z2)
    return RateEvaluation(
        max(float(res.fun), 0.0),
        argmax_tilt=inner.argmax_tilt,
        converged=bool(res.success) and inner.converged,
        iterations=int(res.nfev),
        method="ascent",
    )


def conditional_rate_J(model: HoldingTimeModel, z1: float, z2: float) -> float:
    """Conditional rate of the scaled area given the scaled passage time.

    Defined as the joint rate minus the first marginal; nonnegative by the
    variational definitions, clamped against roundoff at the level 1e-8.
    """
    joint = rate_ld(model, z1, z2).value
    if joint == INF:
        return INF
    i1 = marginal_I1(model, z1).value
    if i1 == INF:
        return INF
    diff = joint - i1
    if diff < -1e-8:
        raise ArithmeticError(f"conditional rate came out {diff} < -1e-8")
    return max(diff, 0.0)
