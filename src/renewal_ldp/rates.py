"""Large-deviation rate functions for the scaled passage pair.

The bivariate rate is the Legendre-Fenchel transform I = L* of the limit
function, and the marginal rates follow from it by contraction.  The joint rate
is the model table's for every kind: inverse-Gaussian in closed form, the gamma
family as phi* + shape kappa*, and noncentral chi-squared by one root in
s = log(u1/u0); the first marginal is phi*, in closed form for every kind, and
every line rate is one :func:`models.dual_newton` on the Hessian of L along the
line.  The specialized path for exponential holding times, where the optimal
area tilt is the nonzero root of an explicit scalar equation, is kept
independent of both as a reference.
"""

from __future__ import annotations

import math
import sys

from .lambda_surface import _second_order
from .models import INF, HoldingTimeModel, RateEvaluation, dual_newton, phi_star, reject_nan

# the Poisson root is resolved down to s = -log(eps) of this size; below it the
# rate differs from the midline value phi*(z1) by O(s^2)
POISSON_S_FLOOR = 2.0**-30
# J = I - I1 down to -this * I is roundoff: near the midline the true J lies far below an ulp of I, and
# -J/(eps I) reached 67.1 in a sweep of six models over z1 from 1e-4 to 1e300 times the mean
J_ROUNDOFF = 68 * sys.float_info.epsilon


def in_support_cone(z1: float, z2: float) -> bool:
    """The scaled pair lives in {0 <= z2 <= z1} almost surely."""
    return 0.0 <= z2 <= z1


def rate_ld(model: HoldingTimeModel, z1: float, z2: float) -> RateEvaluation:
    """Bivariate rate function sup_a {a.z - L(a)}, from phi* on the midline and the model table's joint rate off it.

    Infinite off the support cone, at z1 = inf, and on the cone's edges z2 in {0, z1}: every built-in phi tends to
    -inf at -inf.  The reflection I(z1, z2) = I(z1, z1 - z2) folds the area onto w = min(z2, z1 - z2) <= z1/2, where
    the optimal a2 is <= 0; on the midline a2 = 0 and I = phi*(z1).  Elsewhere the kind's ``joint_rate`` gives it:
    inverse-Gaussian in closed form (``closed_form``), the gamma family as phi*(z1) + shape kappa*(w/z1)
    (``kappa_star``) and noncentral chi-squared by one root in s = log(u1/u0) (``s_root``), ``iterations`` counting
    the steps of kappa* or of the root.  RootError where the optimal tilt is not a double; ValueError for a NaN level.
    """
    reject_nan(z1, z2)
    if not in_support_cone(z1, z2) or z1 == INF:
        return RateEvaluation(INF, method="closed_form")
    if z2 == 0.0 or z2 == z1:
        return RateEvaluation(INF, method="closed_form", on_boundary=True)
    w = min(z2, z1 - z2)
    if 2.0 * w == z1:
        mid = phi_star(model, z1)
        a1, a2, value, iterations, method = mid.argmax_tilt[0], 0.0, mid.value, mid.iterations, mid.method
    else:
        (a1, a2, value), iterations, method = model.joint_rate(z1, w)
    tilt = (a1, a2) if w == z2 else (a1 + a2, -a2)
    return RateEvaluation(max(value, 0.0), argmax_tilt=tilt, iterations=iterations, method=method)


def rate_ld_poisson(lambda_param: float, z1: float, z2: float) -> RateEvaluation:
    """Exponential-holding-time rate via the nonzero root of g(a2) = a2*z1.

    Independent of :func:`rate_ld`; valid on the interior 0 < z2 < z1 of the
    support cone.  The reflection folds the area onto w = min(z2, z1 - z2),
    where the root a2 = -b is negative and the optimal segment [a1 - b, a1]
    ends eps/z1 below lam, eps = 1 - b*w.  Near the cone edges eps is far
    below the spacing of doubles at lam, so the root is solved for
    s = -log(eps), and the value lam*z1 - 1 - L takes L from the x log x form
    over the two boundary distances eps/z1 and (1 + b(z1 - w))/z1.  On the
    midline b = 0 and the value is phi*(z1).  The root is bracketed by doubling
    and halving s, then narrowed by Anderson-Bjorck steps of regula falsi,
    each at least an ulp inside the bracket, down to adjacent doubles, keeping
    the end where the residual is not negative.
    """
    if not (0.0 < z2 < z1):
        raise ValueError("rate_ld_poisson requires 0 < z2 < z1")
    lam = lambda_param
    w = min(z2, z1 - z2)

    def resid(s):  # g(-b) + b*z1: positive between 0 and the root, -> -inf
        b = -math.expm1(-s) / w
        return b * z1 - s - math.log1p(b * (z1 - w))

    s, iterations = 0.0, 0
    if 2.0 * w != z1:
        hi = 1.0
        while (f_hi := resid(hi)) >= 0.0:
            hi, iterations = 2.0 * hi, iterations + 1
        lo = 0.5 * hi
        while (f_lo := resid(lo)) < 0.0 and lo > POISSON_S_FLOOR:
            hi, f_hi, lo, iterations = lo, f_lo, 0.5 * lo, iterations + 1
        if f_lo >= 0.0:
            # regula falsi inside the bracket [lo, 2 lo], at least an ulp from either end.  Where a step keeps
            # the end the last step kept, that end's residual f is scaled by 1 - f_new/f_old of the end that
            # moved (by 1/2 where that is not positive), so that it moves next (Anderson and Bjorck 1973).
            # Next to the root, and next to the midline everywhere, the residual is a small difference that
            # roundoff spreads, even to 0 over many doubles: where three steps did not halve the bracket, or
            # a step left lo on a residual of 0, the next one bisects it
            kept, widths = 0, (INF, INF, INF)  # kept: -1 lo, 1 hi; widths: the bracket's last three
            while (inside := math.nextafter(lo, INF)) < hi:
                if hi - lo > 0.5 * widths[0] or (f_lo == 0.0 and kept == 1):
                    trial = lo + 0.5 * (hi - lo)
                else:
                    trial = min(max(lo + f_lo / (f_lo - f_hi) * (hi - lo), inside), math.nextafter(hi, -INF))
                widths, iterations = (*widths[1:], hi - lo), iterations + 1
                if (f := resid(trial)) >= 0.0:
                    if kept == 1:
                        f_hi *= m if f_lo and (m := 1.0 - f / f_lo) > 0.0 else 0.5
                    lo, f_lo, kept = trial, f, 1
                else:
                    if kept == -1:
                        f_lo *= m if f_hi and (m := 1.0 - f / f_hi) > 0.0 else 0.5
                    hi, f_hi, kept = trial, f, -1
            s = lo
    b = -math.expm1(-s) / w
    log_far = math.log1p(b * (z1 - w))   # log of z1 times the far distance
    log_rho = -s - log_far               # log of the near/far distance ratio
    r = -math.expm1(log_rho)
    # L = log(lam/far) + h(r), h(r) = 1 + rho log(rho)/r the mean of -log(1 - r y)
    h = 1.0 + math.exp(log_rho) * log_rho / r if r > 0.0 else 0.0
    value = lam * z1 - 1.0 - math.log(lam * z1) + log_far - h
    a1, a2 = lam - math.exp(-s) / z1, (-b if b else 0.0)
    tilt = (a1, a2) if w == z2 else (a1 + a2, -a2)
    return RateEvaluation(max(value, 0.0), argmax_tilt=tilt, iterations=iterations,
                          method="poisson_g_root")


def marginal_I1(model: HoldingTimeModel, z1: float) -> RateEvaluation:
    """Marginal rate of the scaled passage time; equals the transform of phi."""
    return phi_star(model, z1)


def marginal_I2(model: HoldingTimeModel, z2: float) -> RateEvaluation:
    """Marginal rate of the scaled area, sup_t {t*z2 - L(0, t)}: the line z2 = const, INF for z2 <= 0.

    A NaN z2 reaches :func:`line_rate`'s guard, which raises ValueError before any solve.
    """
    if z2 <= 0.0:
        return RateEvaluation(INF, method="closed_form", on_boundary=z2 == 0.0)
    return line_rate(model, (0.0, 1.0), z2)


def line_rate(model: HoldingTimeModel, normal, offset: float) -> RateEvaluation:
    """Least joint rate on the line {n.z = c}: sup_t {t c - L(t n)}, the same for (-n, -c).

    By contraction and Fenchel duality, also the least I on {n.z >= c} if that misses p = (mean,
    mean/2).  One :func:`models.dual_newton` from the moderate-deviation tilt (c - n.p)/(n^T C n),
    capped at half the top of D(L) along n, where t max(n1, n1 + n2) is the bound; the line is
    signed so that top is finite, with n.p <= c where t n is bounded below too.  INF if n.z > c on
    the open cone, phi*(c/n1) if t n spans no double at the top (vertical), 0 or INF if n = 0.
    ValueError for a NaN n or c.
    """
    reject_nan(*normal, offset)
    n1, n2 = normal
    if n1 == 0.0 and n2 == 0.0:
        return RateEvaluation(0.0 if offset == 0.0 else INF, method="closed_form")
    if max(n1, n1 + n2) <= 0.0 or (min(n1, n1 + n2) < 0.0 and (n1 + 0.5 * n2) * model.mean > offset):
        n1, n2, offset = -n1, -n2, -offset
    if offset <= 0.0 and min(n1, n1 + n2) >= 0.0:  # n.z spans (0, inf) on the open cone
        return RateEvaluation(INF, method="closed_form")
    bound = model.domain.search_top(finite_at_face=True)
    # t n1 + t n2 is evaluated with an error up to 2**-53 t (|n1| + |n2|); this top leaves room for it, so
    # every t below passes _second_order's domain test even where n1 + n2 is a rounding residue (top ~ 1e16)
    top = bound / max(n1, n1 + n2 + 2.0**-53 * (abs(n1) + abs(n2)))
    while max(top * n1, top * n1 + top * n2) > bound:  # the domain test of t n
        top = math.nextafter(top, -INF)
    if top * n1 + top * n2 == top * n1:
        return phi_star(model, offset / n1)

    def terms(t):
        # the table's Hessian is at a2 <= 0: t n2 > 0 folds by the reflection onto the normal (n1 + n2, -n2)
        m1, m2 = (n1 + n2, -n2) if t * n2 > 0.0 else (n1, n2)
        if (second := _second_order(model, t * m1, t * m2)) is None:
            return None
        value, d1, d2, (r1, r2, rho) = second
        # n^T H n = (m1 r1 + rho m2 r2)^2 + (1 - rho^2)(m2 r2)^2, inf on a closed face
        return value, m1 * d1 + m2 * d2, math.hypot(m1 * r1 + rho * m2 * r2, math.sqrt(1.0 - rho * rho) * m2 * r2)

    curvature = model.cgf_d2(0.0) * ((n1 + 0.5 * n2) ** 2 + n2 * n2 / 12.0)  # n^T C n
    start = min((offset - (n1 + 0.5 * n2) * model.mean) / curvature, 0.5 * top)
    t, value, iterations = dual_newton(terms, offset, start, top)
    a1, a2 = t * n1 + 0.0, t * n2  # + 0.0: the line z2 = c has the tilt (0, t), not (-0, t)
    return RateEvaluation(max(value, 0.0), argmax_tilt=(a1, a2), iterations=iterations, method="newton")


def conditional_rate_J(model: HoldingTimeModel, z1: float, z2: float) -> float:
    """Conditional rate of the scaled area given the scaled passage time.

    Defined as the joint rate minus the first marginal; nonnegative by the
    variational definitions, clamped against roundoff at the level
    max(1e-8, J_ROUNDOFF * I): at large levels the two rates agree to tens of ulps of I.
    """
    joint = rate_ld(model, z1, z2).value
    if joint == INF:
        return INF
    diff = joint - marginal_I1(model, z1).value  # a finite joint rate means 0 < z2 < z1
    if diff < -(bound := max(1e-8, J_ROUNDOFF * joint)):
        raise ArithmeticError(f"conditional rate came out {diff} < -{bound}")
    return max(diff, 0.0)
