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
from dataclasses import dataclass

import numpy as np

from .models import INF, RateEvaluation, model_of
from .rates import conditional_rate_J

SMALL_BETA_Z = 1e-8  # below |beta*z1| the closed form cancels; use the series


@dataclass(frozen=True)
class ConditionalSpec:
    """Conditioning data: x holding times, passage time y, area tilt beta."""

    x: int
    y: float
    beta: float

    def __post_init__(self):
        if self.x < 1:
            raise ValueError("x must be a positive integer")
        if self.y <= 0:
            raise ValueError("y must be positive")


def kappa(beta: float, z1: float) -> float:
    """CGF of the uniform law on (0, z1): log((e^{beta z1} - 1)/(beta z1))."""
    if z1 < 0:
        raise ValueError("z1 must be nonnegative")
    t = beta * z1
    if abs(t) < SMALL_BETA_Z:
        return 0.5 * t + t * t / 24.0
    if t > 0:
        # log((e^t - 1)/t) = t + log((1 - e^{-t})/t); expm1 keeps the ratio
        # accurate to machine precision for every t > 0
        return t + math.log(-math.expm1(-t) / t)
    return math.log(math.expm1(t) / t)


def kappa_d1(beta: float, z1: float) -> float:
    """Derivative in beta: z1/(1 - e^{-beta z1}) - 1/beta, increasing from 0 to z1."""
    t = beta * z1
    if abs(t) < SMALL_BETA_Z:
        return 0.5 * z1 + beta * z1 * z1 / 12.0
    return z1 / -math.expm1(-t) - 1.0 / beta


def kappa_star(z2: float, z1: float) -> RateEvaluation:
    """Convex conjugate sup_beta {beta z2 - kappa(beta; z1)}.

    Finite on (0, z1); zero exactly at z2 = z1/2.  The supremum at the
    support endpoints diverges (continuous law), reported as infinity with
    converged=False since it is approached, never attained.
    """
    if z1 < 0:
        raise ValueError("z1 must be nonnegative")
    if z1 == 0.0:
        return RateEvaluation(0.0 if z2 == 0.0 else INF, method="closed_form")
    if z2 < 0.0 or z2 > z1:
        return RateEvaluation(INF, method="closed_form")
    if z2 == 0.0 or z2 == z1:
        return RateEvaluation(INF, converged=False, on_boundary=True, method="newton")
    if z2 == 0.5 * z1:
        return RateEvaluation(0.0, argmax_tilt=(0.0,), method="closed_form")
    # bisection bracket [-B, B] doubling until kappa' straddles z2
    B = 1.0
    iters = 0
    while not (kappa_d1(-B, z1) < z2 < kappa_d1(B, z1)):
        B *= 2.0
        iters += 1
        if iters > 200:
            return RateEvaluation(0.0, converged=False, iterations=iters, method="newton")
    lo, hi = -B, B
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if kappa_d1(mid, z1) < z2:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-15 * max(1.0, abs(lo) + abs(hi)):
            break
        iters += 1
    beta = 0.5 * (lo + hi)
    value = beta * z2 - kappa(beta, z1)
    return RateEvaluation(max(value, 0.0), argmax_tilt=(beta,), iterations=iters, method="newton")


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
    ``brute_force`` integrates the simplex recursion level by level with
    Gauss-Legendre panels (cost grows fast, capped at x=6).
    """
    if int(x) != x or x < 2:
        raise ValueError("x must be an integer >= 2")
    if beta == 0.0:
        raise ValueError("beta must be nonzero (the beta->0 limit is the simplex volume)")
    if mode == "closed_form":
        return (-math.expm1(-beta * y)) ** (x - 1) / (beta ** (x - 1) * math.factorial(x - 1))
    if mode != "brute_force":
        raise ValueError(f"unknown mode {mode!r}")
    if x > 6:
        raise ValueError(
            f"brute_force cost grows exponentially; x={x} > 6 refused "
            f"(~{64 ** (x - 1):.0e} kernel evaluations)"
        )
    return _brute_force_simplex(int(x), y, beta)


_BF_NODES, _BF_WEIGHTS = np.polynomial.legendre.leggauss(64)


def _brute_force_simplex(x: int, y: float, beta: float) -> float:
    """Vectorized recursive Gauss-Legendre over the simplex, 64 nodes per level."""

    def level(k: int, remaining: np.ndarray) -> np.ndarray:
        # integral over t_k in (0, remaining) of e^{-beta (x-k) t_k} * level(k+1, remaining - t_k)
        if k == x:  # all x-1 variables consumed
            return np.ones_like(remaining)
        half = 0.5 * remaining[:, None]
        t = half * (_BF_NODES[None, :] + 1.0)
        inner = level(k + 1, (remaining[:, None] - t).ravel()).reshape(t.shape)
        integrand = np.exp(-beta * (x - k) * t) * inner
        return (half * _BF_WEIGHTS[None, :] * integrand).sum(axis=1)

    return float(level(1, np.array([y]))[0])


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


def conditional_ldp_check(x_grid, z1_sequence, beta: float, z1_limit: float | None = None) -> list[dict]:
    """Per-x conditional CGF of the scaled area against its uniform-law limit.

    Evaluates (1/x) log E[exp(x beta A/x^2) | tau/x = z1(x)] from the closed
    form and reports convergence to kappa(beta, lim z1).
    """
    rows = []
    for x in x_grid:
        x = int(x)
        z1x = z1_sequence(x)
        value = log_conditional_mgf(x, x * z1x, beta / x) / x
        rows.append({"x": x, "z1_x": z1x, "value": value})
    if z1_limit is None:
        z1_limit = z1_sequence(10**9)  # proxy for the limit of the sequence
    limit = kappa(beta, z1_limit)
    for row in rows:
        row["limit"] = limit
        row["error"] = abs(row["value"] - limit)
    return rows


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
