"""Moderate-deviation quadratic rates, exact finite-x moments, and CLT limits.

The moderate regime replaces the full limit function by its second-order
expansion at the origin: the quadratic form with matrix C = phi''(0) *
[[1,1/2],[1/2,1/3]] and its convex conjugate with C^{-1}.  This module also
carries the exact finite-x moments of the passage pair (integer and
non-integer x), the universal sqrt(3)/2 correlation limit, and the two
normal-approximation confidence intervals for the mean holding time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.special import ndtri

from .lambda_surface import hessian_origin
from .models import INF, HoldingTimeModel

CORRELATION_LIMIT = math.sqrt(3.0) / 2.0


@dataclass(frozen=True)
class ModerateScaling:
    """Scaling family a_x with a_x -> 0 and x*a_x -> inf.

    The default family is a_x = x^(-p) with p in (0,1); an arbitrary map can
    be supplied instead.  ``validate`` checks the discrete proxy of the two
    limit conditions on a grid.
    """

    p: float = 0.5
    a_map: Callable[[float], float] | None = None

    def __post_init__(self):
        if self.a_map is None and not 0.0 < self.p < 1.0:
            raise ValueError("scaling exponent p must lie in (0, 1)")

    def a(self, x: float) -> float:
        if self.a_map is not None:
            return self.a_map(x)
        return x ** (-self.p)

    def speed(self, x: float) -> float:
        return 1.0 / self.a(x)

    def validate(self, x_grid: Sequence[float]) -> bool:
        xs = sorted(x_grid)
        a_vals = [self.a(x) for x in xs]
        xa_vals = [x * self.a(x) for x in xs]
        decreasing = all(b < a for a, b in zip(a_vals, a_vals[1:]))
        increasing = all(b > a for a, b in zip(xa_vals, xa_vals[1:]))
        return decreasing and increasing


@dataclass(frozen=True)
class MomentReport:
    """Exact moments of the passage pair at a fixed initial level x."""

    x: float
    n_terms: int
    mean_tau: float
    var_tau: float
    mean_area: float
    var_area: float
    cov: float

    @property
    def correlation(self) -> float:
        return self.cov / math.sqrt(self.var_tau * self.var_area)


def psi(model: HoldingTimeModel, a1: float, a2: float) -> float:
    """Quadratic form (1/2) a^T C a = (phi''(0)/2)(a1^2 + a1 a2 + a2^2/3); globally finite."""
    return 0.5 * model.variance * (a1 * a1 + a1 * a2 + a2 * a2 / 3.0)


def psi_star(model: HoldingTimeModel, z1: float, z2: float) -> float:
    """Conjugate quadratic form (1/2) z^T C^{-1} z; the moderate rate.

    With C^{-1} = (1/phi''(0)) [[4, -6], [-6, 12]] it is (2z1^2 - 6z1 z2 + 6z2^2)/phi''(0).
    """
    return (2.0 * z1 * z1 - 6.0 * z1 * z2 + 6.0 * z2 * z2) / model.variance


def exact_moments(model: HoldingTimeModel, x: float) -> MomentReport:
    """Moments of the weighted holding-time sums, for integer or fractional x."""
    if x <= 0:
        raise ValueError("x must be positive")
    phi1 = model.mean
    phi2 = model.variance
    if float(x).is_integer():
        n = int(x)
        return MomentReport(
            x=x,
            n_terms=n,
            mean_tau=n * phi1,
            var_tau=n * phi2,
            mean_area=phi1 * n * (n + 1) / 2.0,
            var_area=phi2 * n * (n + 1) * (2 * n + 1) / 6.0,
            cov=phi2 * n * (n + 1) / 2.0,
        )
    m = math.floor(x)
    n = m + 1
    return MomentReport(
        x=x,
        n_terms=n,
        mean_tau=n * phi1,
        var_tau=n * phi2,
        mean_area=phi1 * n * (x - m / 2.0),
        var_area=phi2 * n * (12.0 * x * (x - m) + 2.0 * m * (2 * m + 1)) / 12.0,
        cov=phi2 * n * (x - m / 2.0),
    )


def passage_weights(x: float) -> np.ndarray:
    """Weights of the holding times inside the passage area: x, x-1, ..."""
    n = int(x) if float(x).is_integer() else math.floor(x) + 1
    return x - np.arange(n)


def correlation_limit(model: HoldingTimeModel, x: float) -> dict:
    """Finite-x correlation of the passage pair and its universal limit."""
    rho = exact_moments(model, x).correlation
    return {"rho_x": rho, "limit": CORRELATION_LIMIT}


def confidence_intervals(
    model: HoldingTimeModel,
    x: float,
    level: float,
    observed_tau_over_x: float | None = None,
    observed_area_over_x2: float | None = None,
) -> dict:
    """The two normal-approximation interval estimates of the mean holding time.

    The passage-time interval is tau/x +- sqrt(phi''(0)/x) * q and the area
    interval is 2*(A/x^2 +- sqrt(phi''(0)/(3x)) * q), with q the standard
    normal quantile at (1+level)/2.  Their width ratio is exactly 2/sqrt(3).
    """
    if not 0.0 < level < 1.0:
        raise ValueError("confidence level must lie in (0, 1)")
    if x <= 0:
        raise ValueError("x must be positive")
    q = float(ndtri(0.5 * (1.0 + level)))
    phi2 = model.variance
    half_tau = math.sqrt(phi2 / x) * q
    half_area = 2.0 * math.sqrt(phi2 / (3.0 * x)) * q
    out = {"quantile": q, "width_ratio": 2.0 / math.sqrt(3.0)}
    if observed_tau_over_x is not None:
        out["tau_interval"] = (observed_tau_over_x - half_tau, observed_tau_over_x + half_tau)
    if observed_area_over_x2 is not None:
        center = 2.0 * observed_area_over_x2
        out["area_interval"] = (center - half_area, center + half_area)
    out["tau_half_width"] = half_tau
    out["area_half_width"] = half_area
    return out


# ---------------------------------------------------------------------------
# regions for moderate-deviation events


@dataclass(frozen=True)
class HalfPlane:
    """{z : normal . z >= offset}."""

    normal: tuple[float, float]
    offset: float

    def contains(self, z1, z2):
        return self.normal[0] * z1 + self.normal[1] * z2 >= self.offset


@dataclass(frozen=True)
class Rectangle:
    """Axis-aligned rectangle [x_lo, x_hi] x [y_lo, y_hi]; inf bounds allowed."""

    x_lo: float
    x_hi: float
    y_lo: float
    y_hi: float

    def contains(self, z1, z2):
        return (self.x_lo <= z1 <= self.x_hi) and (self.y_lo <= z2 <= self.y_hi)


@dataclass(frozen=True)
class RegionUnion:
    """Finite union of rectangles and half-planes."""

    parts: tuple = field(default_factory=tuple)

    def contains(self, z1, z2):
        return any(p.contains(z1, z2) for p in self.parts)


def sup_norm_exceedance(delta: float) -> RegionUnion:
    """The region {||z||_inf > delta} as a union of four half-planes."""
    return RegionUnion(
        parts=(
            HalfPlane((1.0, 0.0), delta),
            HalfPlane((-1.0, 0.0), delta),
            HalfPlane((0.0, 1.0), delta),
            HalfPlane((0.0, -1.0), delta),
        )
    )


def md_event_rate(model: HoldingTimeModel, region) -> float:
    """Infimum of the moderate quadratic rate over a region.

    Exact for half-planes (stationary point on the bounding line, using
    min (1/2) z^T C^{-1} z s.t. n.z = c  ->  c^2 / (2 n^T C n)) and for
    axis-aligned rectangles (interior check plus edge/corner enumeration).
    """
    C = hessian_origin(model).C
    if isinstance(region, RegionUnion):
        if not region.parts:
            return INF
        return min(md_event_rate(model, p) for p in region.parts)
    if isinstance(region, HalfPlane):
        n = np.array(region.normal)
        c = region.offset
        if c <= 0.0:
            return 0.0  # the origin satisfies n.z >= c
        return c**2 / (2.0 * float(n @ C @ n))
    if isinstance(region, Rectangle):
        return _rectangle_min(model, region)
    raise TypeError(f"unsupported region type {type(region).__name__}")


def _rectangle_min(model: HoldingTimeModel, rect: Rectangle) -> float:
    if rect.x_lo > rect.x_hi or rect.y_lo > rect.y_hi:
        return INF
    if rect.contains(0.0, 0.0):
        return 0.0
    C_inv = hessian_origin(model).C_inv
    q11, q12, q22 = C_inv[0, 0], C_inv[0, 1], C_inv[1, 1]
    candidates = []

    def clamp(v, lo, hi):
        return min(max(v, lo), hi)

    # vertical edges: z1 fixed, minimize over z2 in [y_lo, y_hi]
    for z1 in (rect.x_lo, rect.x_hi):
        if math.isfinite(z1):
            z2 = clamp(-q12 * z1 / q22, rect.y_lo, rect.y_hi)
            if math.isfinite(z2):
                candidates.append((z1, z2))
    # horizontal edges: z2 fixed, minimize over z1
    for z2 in (rect.y_lo, rect.y_hi):
        if math.isfinite(z2):
            z1 = clamp(-q12 * z2 / q11, rect.x_lo, rect.x_hi)
            if math.isfinite(z1):
                candidates.append((z1, z2))
    if not candidates:
        raise ValueError("rectangle must have at least one finite edge")
    return min(
        0.5 * (q11 * z1**2 + 2.0 * q12 * z1 * z2 + q22 * z2**2) for z1, z2 in candidates
    )


def centering_mode(model: HoldingTimeModel, x: float, mode: str = "theoretical") -> tuple[float, float]:
    """Centerings of the scaled pair: the law-of-large-numbers point or exact means."""
    if x <= 0:
        raise ValueError("x must be positive")
    if mode == "theoretical":
        phi1 = model.mean
        return (phi1, 0.5 * phi1)
    if mode == "expectation":
        moments = exact_moments(model, x)
        return (moments.mean_tau / x, moments.mean_area / x**2)
    raise ValueError(f"unknown centering mode {mode!r}")
