"""Large-deviation rate functions for the scaled passage pair.

The bivariate rate is the Legendre-Fenchel transform I = L* of the limit
function, and the marginal rates follow from it by contraction.  Every
transform here is solved by one routine, :func:`models.increasing_root`: the
root of an increasing function on a half-line (-inf, top], or top itself when
the supremum sits on a face of the domain.  The specialized path for
exponential holding times, where the optimal area tilt is the nonzero root of
an explicit scalar equation, is kept independent of it as a reference.
"""

from __future__ import annotations

import math

from .lambda_surface import lambda_d1, lambda_eval, lambda_grad
from .models import INF, HoldingTimeModel, RateEvaluation, brent, increasing_root, phi_star, reject_nan

# the Poisson root is resolved down to s = -log(eps) of this size; below it the
# rate differs from the midline value phi*(z1) by O(s^2)
POISSON_S_FLOOR = 2.0**-30


def in_support_cone(z1: float, z2: float) -> bool:
    """The scaled pair lives in {0 <= z2 <= z1} almost surely."""
    return 0.0 <= z2 <= z1


def rate_ld(model: HoldingTimeModel, z1: float, z2: float) -> RateEvaluation:
    """Bivariate rate function sup_a {a.z - L(a)}.

    Infinite off the support cone, and on its edges z2 in {0, z1}: every
    built-in phi tends to -inf at -inf, so the supremum diverges there.  The
    reflection I(z1, z2) = I(z1, z1 - z2) folds the area onto
    w = min(z2, z1 - z2) <= z1/2, where the optimal area tilt a2 is <= 0.
    For fixed a2 the best a1 is the root of d1L(., a2) = z1 below the top of
    the domain, or that top (the inverse-Gaussian face).  The envelope
    d2L(a1*(a2), a2) - w is then increasing in a2 and equals z1/2 - w at 0,
    so a2 is its root on (-inf, 0]; a2 = 0 is the midline, where I = phi*(z1).
    The inner root runs on d1L alone (:func:`lambda_d1`), and every inner
    solve but the first of a call starts from the last a1*, since successive
    outer iterates a2 move a1* little.  ``iterations`` counts the steps of
    the outer root and of every inner one.  ValueError for a NaN level.
    """
    reject_nan(z1, z2)
    if not in_support_cone(z1, z2):
        return RateEvaluation(INF, method="closed_form")
    if z2 == 0.0 or z2 == z1:
        return RateEvaluation(INF, method="closed_form", on_boundary=True)
    w = min(z2, z1 - z2)
    top = model.domain.search_top(finite_at_face=True)
    inner = []  # (a1*, steps) of each inner solve

    def a1_star(a2):
        a1, steps = increasing_root(lambda a1: lambda_d1(model, a1, a2) - z1, top,
                                    start=inner[-1][0] if inner else None)
        inner.append((a1, steps))
        return a1

    def envelope(a2):
        if a2 == 0.0:
            return 0.5 * z1 - w
        return lambda_grad(model, a1_star(a2), a2)[1] - w

    a2, outer = increasing_root(envelope, 0.0, model.domain.boundary)
    if a2 == 0.0:
        mid = phi_star(model, z1)
        a1, value, method = mid.argmax_tilt[0], mid.value, mid.method
        inner.append((a1, mid.iterations))
    else:
        a1 = a1_star(a2)
        value, method = a1 * z1 + a2 * w - lambda_eval(model, a1, a2), "monotone_root"
    tilt = (a1, a2) if w == z2 else (a1 + a2, -a2)
    iterations = outer + sum(steps for _, steps in inner)
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
    midline b = 0 and the value is phi*(z1).
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
            lo, iterations = 0.5 * lo, iterations + 1
        if f_lo >= 0.0:
            s, steps = brent(resid, lo, hi, f_lo, f_hi, xtol=1e-300)
            iterations += steps
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

    By contraction and Fenchel duality, also the least I on {n.z >= c} if that
    misses p = (mean, mean/2).  The maximiser is the root of the increasing
    n.gradL(t n) - c, or the top of D(L) along n, where t max(n1, n1 + n2) is
    the bound; the line is signed so that top is finite, with n.p <= c (a root
    t >= 0, searched for up from 0) where t n is bounded below too.  INF if
    n.z > c on the open cone, phi*(c/n1) if t n spans no double at the top
    (vertical), 0 or INF if n = 0.  ValueError for a NaN n or c.
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
    # every t below passes lambda_grad's test even where n1 + n2 is a rounding residue (a top near 1e16)
    top = bound / max(n1, n1 + n2 + 2.0**-53 * (abs(n1) + abs(n2)))
    while max(top * n1, top * n1 + top * n2) > bound:  # lambda_grad's own test of t n
        top = math.nextafter(top, -INF)
    if top * n1 + top * n2 == top * n1:
        return phi_star(model, offset / n1)

    def slope(t):
        d1, d2 = lambda_grad(model, t * n1, t * n2)
        return n1 * d1 + n2 * d2 - offset

    # the root's scale is the t at which the larger end of the segment t (n1, n1 + n2) has the bound's size
    # (top can be 1e16 times that); where t n is bounded below too, n.p <= c puts the root at t >= 0
    t, iterations = increasing_root(slope, top, scale=min(top, bound / max(abs(n1), abs(n1 + n2))),
                                    start=0.0 if min(n1, n1 + n2) < 0.0 else None)
    a1, a2 = t * n1 + 0.0, t * n2  # + 0.0: the line z2 = c has the tilt (0, t), not (-0, t)
    return RateEvaluation(max(t * offset - lambda_eval(model, a1, a2), 0.0), argmax_tilt=(a1, a2),
                          iterations=iterations, method="monotone_root")


def conditional_rate_J(model: HoldingTimeModel, z1: float, z2: float) -> float:
    """Conditional rate of the scaled area given the scaled passage time.

    Defined as the joint rate minus the first marginal; nonnegative by the
    variational definitions, clamped against roundoff at the level 1e-8.
    """
    joint = rate_ld(model, z1, z2).value
    if joint == INF:
        return INF
    diff = joint - marginal_I1(model, z1).value  # a finite joint rate means 0 < z2 < z1
    if diff < -1e-8:
        raise ArithmeticError(f"conditional rate came out {diff} < -1e-8")
    return max(diff, 0.0)
