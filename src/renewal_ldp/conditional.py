"""Conditional machinery for exponential holding times.

Given the passage time, the area of a Poisson-driven passage has an explicit
conditional MGF, and the limiting conditional CGF of the scaled area is that
of a uniform law on (0, z1).  This module provides that CGF and its convex
conjugate, the finite-x conditional MGF, the iterated simplex integral behind
it (closed form and brute-force quadrature), an exact conditional sampler,
and the variational cross-check against the joint-minus-marginal rate.
"""

from __future__ import annotations

import math
from functools import cache, reduce
from typing import TYPE_CHECKING

from .models import INF, RateEvaluation, dual_newton, model_of, reject_nan
from .rates import conditional_rate_J

if TYPE_CHECKING:
    import numpy as np

# kappa(t; 1) = t/2 + sum_n B_2n t^(2n)/(2n (2n)!) below |t| = 1/2, with kappa' and kappa'' term by term, from
# the Bernoulli numbers B_2, ..., B_14: the closed forms lose eps absolutely where kappa ~ t/2 and kappa'' ~ 1/12
# (4 eps/t^2 of it), and 7 terms leave less than 1e-15.  The columns are in t^2, highest first: the
# coefficients of (kappa - t/2)/t^2, (kappa' - 1/2)/t and kappa''
_KAPPA_SERIES = tuple((b / (2 * n) / math.factorial(2 * n), b / math.factorial(2 * n),
                       b * (2 * n - 1) / math.factorial(2 * n))
                      for n, b in reversed(list(enumerate((1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730,
                                                           7 / 6), 1))))


def _kappa_series(t: float, column: int) -> float:
    return reduce(lambda series, coefficients: coefficients[column] + t * t * series, _KAPPA_SERIES, 0.0)


def kappa(beta: float, z1: float) -> float:
    """CGF of the uniform law on (0, z1): log((e^{beta z1} - 1)/(beta z1))."""
    if z1 < 0:
        raise ValueError("z1 must be nonnegative")
    t = beta * z1
    if abs(t) < 0.5:
        return 0.5 * t + t * t * _kappa_series(t, 0)
    if t > 0:
        # log((e^t - 1)/t) = t + log((1 - e^{-t})/t); expm1 keeps the ratio
        # accurate to machine precision for every t > 0
        return t + math.log(-math.expm1(-t) / t)
    return math.log(math.expm1(t) / t)


def kappa_d1(beta: float, z1: float) -> float:
    """Derivative in beta: z1/(1 - e^{-beta z1}) - 1/beta, increasing from 0 to z1."""
    t = beta * z1
    if abs(t) < 0.5:
        return z1 * (0.5 + t * _kappa_series(t, 1))
    if t > 0:
        return z1 / -math.expm1(-t) - 1.0 / beta
    # z1/(1 - e^{-t}) = z1 e^t/(e^t - 1); e^{-t} would overflow for t < -709
    return z1 * math.exp(t) / math.expm1(t) - 1.0 / beta


def _kappa_d2_root(t: float) -> float:
    """The square root of kappa''(t; 1) = 1/t^2 - 1/(4 sinh^2(t/2)), which falls from 1/12 at 0 like 1/t^2."""
    if abs(t) < 0.5:
        return math.sqrt(_kappa_series(t, 2))
    q = abs(t) * math.exp(-0.5 * abs(t)) / -math.expm1(-abs(t))  # (t/2)/sinh(t/2), without overflow
    return math.sqrt((1.0 - q) * (1.0 + q)) / abs(t)


def kappa_d2(beta: float, z1: float) -> float:
    """Second derivative in beta: z1^2 kappa''(beta z1; 1), the variance of the tilted uniform law, at most z1^2/12."""
    return (z1 * _kappa_d2_root(beta * z1)) ** 2


def kappa_star(z2: float, z1: float) -> RateEvaluation:
    """Convex conjugate sup_beta {beta z2 - kappa(beta; z1)}.

    Finite on (0, z1); zero exactly at z2 = z1/2.  The supremum at the
    support endpoints diverges (continuous law), reported as infinity with
    converged=False since it is approached, never attained.  ValueError for
    a NaN level.
    """
    reject_nan(z2, z1)
    if z1 < 0:
        raise ValueError("z1 must be nonnegative")
    if z1 == 0.0:
        return RateEvaluation(0.0 if z2 == 0.0 else INF, method="closed_form")
    if z2 < 0.0 or z2 > z1:
        return RateEvaluation(INF, method="closed_form")
    if z2 == 0.0 or z2 == z1:
        return RateEvaluation(INF, converged=False, on_boundary=True, method="closed_form")
    # the uniform law is symmetric about z1/2, so kappa*(z2) = kappa*(z1 - z2)
    # with the tilt negated.  Folding onto w <= z1/2 (z1 - z2 is exact for
    # z2 >= z1/2) puts the tilt at or below 0, where kappa' = z1 e^t/(e^t - 1) - 1/beta
    # has no cancellation; the midline w = z1/2 is the top 0, with value 0.  As
    # kappa(beta; z1) = kappa(beta z1; 1), the dual is solved for t = beta z1 at level
    # r = w/z1, from the moderate-deviation tilt (r - 1/2)/kappa''(0; 1).
    w = min(z2, z1 - z2)
    r = w / z1
    t, value, iterations = dual_newton(lambda t: (kappa(t, 1.0), kappa_d1(t, 1.0), _kappa_d2_root(t)), r,
                                       12.0 * (r - 0.5), 0.0)
    tilt = t / z1 if w == z2 else -t / z1
    return RateEvaluation(max(value, 0.0), argmax_tilt=(tilt,), iterations=iterations, method="newton")


def log_conditional_mgf(x: int, y: float, beta: float) -> float:
    """log E[exp(beta * area) | passage time = y], x exponential holding times."""
    if x < 1 or int(x) != x:
        raise ValueError("x must be a positive integer")
    if y <= 0:
        raise ValueError("y must be positive")
    if x == 1:
        return beta * y
    return beta * y + (x - 1) * kappa(beta, y)


def conditional_mgf(x: int, y: float, beta: float) -> float:
    """E[exp(beta * area) | passage time = y]: e^{beta x y} ((1-e^{-beta y})/(beta y))^{x-1}."""
    return math.exp(log_conditional_mgf(x, y, beta))


def nested_integral(x: int, y: float, beta: float, mode: str = "closed_form") -> float:
    """The iterated simplex integral with kernel exp(-beta * sum (x-k) t_k).

    ``closed_form`` evaluates (1 - e^{-beta y})^{x-1} / (beta^{x-1} (x-1)!);
    ``brute_force`` integrates the simplex recursion level by level by
    quadrature, at a cost linear in x.
    """
    if int(x) != x or x < 2:
        raise ValueError("x must be an integer >= 2")
    if beta == 0.0:
        raise ValueError("beta must be nonzero (the beta->0 limit is the simplex volume)")
    if mode == "closed_form":
        return (-math.expm1(-beta * y)) ** (x - 1) / (beta ** (x - 1) * math.factorial(x - 1))
    if mode != "brute_force":
        raise ValueError(f"unknown mode {mode!r}")
    return _brute_force_simplex(int(x), y, beta)


@cache
def _bf_rule():
    """The 64-point Gauss-Legendre nodes and weights, built on first use."""
    import numpy as np

    return np.polynomial.legendre.leggauss(64)


def _brute_force_simplex(x: int, y: float, beta: float) -> float:
    """Chebyshev-Nystrom quadrature of the simplex in the partial sums p_m = t_1 + ... + t_m.

    As sum (x-k) t_k = sum p_m, h_m(r) = int_0^r e^{-beta p} h_{m-1}(p) dp from h_0 = 1 ends at
    h_{x-1}(y).  Each h_m is held at 64 Chebyshev-Lobatto points r_j of [0, y] and integrated by
    64-point Gauss-Legendre on (0, r_j), reading h_{m-1} by barycentric interpolation.  The
    kernel grows where h_{m-1} does, so the error stays relative for either sign of beta.
    """
    import numpy as np  # imported on first use: the closed forms are scalar

    nodes, weights = _bf_rule()
    n = nodes.size
    r = 0.5 * y * (1.0 - np.cos(np.pi * np.arange(n) / (n - 1)))
    p = 0.5 * r[:, None] * (1.0 + nodes)
    bary = (-1.0) ** np.arange(n) * np.r_[0.5, np.ones(n - 2), 0.5]
    with np.errstate(divide="ignore"):
        q = bary / (p[..., None] - r)
    on_point = np.isinf(q)  # p falls on a point r_m: read the value there
    q = np.where(on_point.any(axis=-1, keepdims=True), on_point, q)
    step = np.einsum("ji,jim->jm", 0.5 * r[:, None] * weights * np.exp(-beta * p),
                     q / q.sum(axis=-1, keepdims=True))
    return float(np.linalg.matrix_power(step, x - 1)[-1].sum())  # h_{x-1} from h_0 = 1, at r = y


def sample_area_given_tau(x: int, y: float, rng: np.random.Generator, size=None):
    """Exact draw of the area given the passage time: y plus x-1 uniforms on (0, y).

    The MGF of this sum is exactly the conditional MGF above, which is the
    identity the sampler rests on (checked in the test suite at a grid of
    (x, y, beta) triples).
    """
    if x < 1 or int(x) != x:
        raise ValueError("x must be a positive integer")
    if y <= 0:
        raise ValueError("y must be positive")
    if size is None:
        return y + rng.uniform(0.0, y, size=x - 1).sum()
    u = rng.uniform(0.0, y, size=(size, x - 1))
    return y + u.sum(axis=1)


def chaganty_equality(lambda_param: float, z1: float, z2: float) -> dict:
    """Two independent routes to the conditional rate: conjugate CGF vs J.

    kappa* does not depend on lambda; the joint-minus-marginal route is
    computed at the given lambda.  Agreement is the variational identity.
    """
    if not (z1 > 0 and 0.0 < z2 < z1):
        raise ValueError("requires z1 > 0 and z2 in (0, z1)")
    ks = kappa_star(z2, z1).value
    model = model_of("exponential", lambda_param)
    j = conditional_rate_J(model, z1, z2)
    return {"kappa_star_value": ks, "J_value": j, "abs_diff": abs(ks - j)}
