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
from functools import cache
from typing import TYPE_CHECKING

# kappa and kappa' live in the model table's module, below rates, whose gamma-family joint rate reads kappa*;
# they stay public names of this module
from .models import INF, RateEvaluation, _kappa_d2_root, kappa, kappa_conjugate, kappa_d1, model_of, phi_star, reject_nan
from .rates import rate_ld_poisson

if TYPE_CHECKING:
    import numpy as np


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
    # kappa(beta; z1) = kappa(beta z1; 1), the dual is solved for t = beta z1 at level r = w/z1
    w = min(z2, z1 - z2)
    t, value, iterations = kappa_conjugate(w, z1)
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
    computed at the given lambda as the independent exponential g-root minus
    phi* (rate_ld's own exponential rate is phi* + kappa*).  Agreement is the
    variational identity.
    """
    if not (z1 > 0 and 0.0 < z2 < z1):
        raise ValueError("requires z1 > 0 and z2 in (0, z1)")
    ks = kappa_star(z2, z1).value
    j = rate_ld_poisson(lambda_param, z1, z2).value - phi_star(model_of("exponential", lambda_param), z1).value
    return {"kappa_star_value": ks, "J_value": j, "abs_diff": abs(ks - j)}
