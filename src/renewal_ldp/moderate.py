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
import operator
from dataclasses import dataclass, field
from functools import reduce
from typing import TYPE_CHECKING, Callable, Sequence

from .models import INF, HoldingTimeModel, reject_nan

if TYPE_CHECKING:
    import numpy as np

CORRELATION_LIMIT = math.sqrt(3.0) / 2.0


@dataclass(frozen=True)
class ModerateScaling:
    """Scaling family a_x = x^(-p), p in (0, 1), so a_x -> 0 and x*a_x -> inf.

    ``validate`` checks the discrete proxy of the two limit conditions on a
    grid: strictly monotone along the sorted levels.
    """

    p: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.p < 1.0:
            raise ValueError("scaling exponent p must lie in (0, 1)")

    def a(self, x: float) -> float:
        return x ** (-self.p)

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

    With C^{-1} = (1/phi''(0)) [[4, -6], [-6, 12]] it is (2 d^2 + 3 z2^2/2)/phi''(0), d = z1 - 3 z2/2:
    the completed square adds no terms of opposite sign, as 2z1^2 - 6z1 z2 + 6z2^2 does.
    """
    d = z1 - 1.5 * z2
    return (2.0 * d * d + 1.5 * z2 * z2) / model.variance


def _check_level(x: float) -> None:
    """Reject an initial level x that is not a positive finite number (NaN included)."""
    if not x > 0:
        raise ValueError("x must be positive")
    if x == INF:
        raise ValueError("x must be finite")


def n_terms_for(x: float) -> int:
    """Number of holding times in the passage at level x: ceil(x)."""
    return math.ceil(x)


def passage_weights(x: float) -> np.ndarray:
    """Weights of the holding times inside the passage area: x, x-1, ..., x - (n - 1)."""
    import numpy as np  # imported on first use: the rest of the module is scalar

    return x - np.arange(n_terms_for(x))


def exact_moments(model: HoldingTimeModel, x: float) -> MomentReport:
    """Moments of the weighted holding-time sums, for integer or fractional x.

    Over the n passage weights, with m = n - 1: sum w = n (x - m/2) and
    sum w^2 = n (12 x (x - m) + 2 m (2m + 1)) / 12.
    """
    _check_level(x)
    phi1 = model.mean
    phi2 = model.variance
    n = n_terms_for(x)
    m = n - 1
    return MomentReport(
        x=x,
        n_terms=n,
        mean_tau=n * phi1,
        var_tau=n * phi2,
        mean_area=phi1 * n * (x - m / 2.0),
        var_area=phi2 * n * (12.0 * x * (x - m) + 2.0 * m * (2 * m + 1)) / 12.0,
        cov=phi2 * n * (x - m / 2.0),
    )


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
    _check_level(x)
    from scipy.special import ndtri  # imported on first use: scipy.special costs ~0.3 s of import
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
# events on the scaled pair, of the large- and the moderate-deviation regime alike


# the axis half-planes: {z1 >= c} is ((1, 0), c) and {z1 <= c} is ((-1, 0), -c); the same for z2
AXES = {("z1", ">="): (1.0, 0.0), ("z1", "<="): (-1.0, 0.0), ("z2", ">="): (0.0, 1.0), ("z2", "<="): (0.0, -1.0)}


@dataclass(frozen=True)
class HalfPlane:
    """{z : normal . z >= offset}; ValueError for a NaN normal or offset."""

    normal: tuple[float, float]
    offset: float

    def __post_init__(self):
        reject_nan(*self.normal, self.offset)

    def contains(self, z1, z2):
        return self.normal[0] * z1 + self.normal[1] * z2 >= self.offset

    def describe(self) -> str:
        """``z1>=1.5`` for an axis normal, else the repr."""
        axis = axis_threshold(self)
        return repr(self) if axis is None else "%s%s%g" % axis


def MarginalThreshold(coord: str, op: str, c: float) -> HalfPlane:
    """The event {coord >= c} or {coord <= c} on one scaled coordinate: an axis half-plane."""
    if (coord, op) not in AXES:
        raise ValueError(f"unknown marginal threshold {coord!r} {op!r}; expected z1 or z2 with >= or <=")
    return HalfPlane(AXES[coord, op], c if op == ">=" else -c)


def axis_threshold(region):
    """(coord, op, c) of an axis half-plane, the inverse of :func:`MarginalThreshold`; else None."""
    for (coord, op), normal in AXES.items():
        if isinstance(region, HalfPlane) and tuple(region.normal) == normal:
            return coord, op, region.offset if op == ">=" else -region.offset
    return None


@dataclass(frozen=True)
class Rectangle:
    """Axis-aligned rectangle [x_lo, x_hi] x [y_lo, y_hi]; inf bounds allowed."""

    x_lo: float
    x_hi: float
    y_lo: float
    y_hi: float

    def __post_init__(self):
        reject_nan(self.x_lo, self.x_hi, self.y_lo, self.y_hi)

    def contains(self, z1, z2):
        return (self.x_lo <= z1) & (z1 <= self.x_hi) & (self.y_lo <= z2) & (z2 <= self.y_hi)


@dataclass(frozen=True)
class RegionUnion:
    """Finite union of rectangles and half-planes."""

    parts: tuple = field(default_factory=tuple)

    def contains(self, z1, z2):
        return reduce(operator.or_, (p.contains(z1, z2) for p in self.parts), False)


def sup_norm_exceedance(delta: float) -> RegionUnion:
    """The region {||z||_inf >= delta} as a union of four closed half-planes."""
    return RegionUnion(tuple(HalfPlane(normal, delta) for normal in AXES.values()))


def region_min(region, center, rate: Callable, row_argmin: Callable, line: Callable, other: Callable) -> float:
    """Infimum over a region of a convex rate that is 0 at ``center``; both regimes use it.

    A :class:`RegionUnion` takes the least value of its parts, INF when it has
    none; any other region 0 when it holds ``center``.  Else a
    :class:`HalfPlane` {n.z >= c} takes ``line(n, c)``, the least rate on its
    edge, and a :class:`Rectangle` INF when empty, else the least rate on its
    finite edges: at z2 = z1/2 on an edge of fixed z1 (the midline, by the
    reflection z2 -> z1 - z2) and at z1 = row_argmin(z2) on an edge of fixed
    z2, each clamped into its edge.  Any other region goes to ``other(region)``.
    """
    if isinstance(region, RegionUnion):
        return min((region_min(p, center, rate, row_argmin, line, other) for p in region.parts), default=INF)
    if region.contains(*center):
        return 0.0
    if isinstance(region, HalfPlane):
        return line(region.normal, region.offset)
    if not isinstance(region, Rectangle):
        return other(region)
    r = region
    if r.x_lo > r.x_hi or r.y_lo > r.y_hi:
        return INF
    points = [(c, min(max(c / 2.0, r.y_lo), r.y_hi)) for c in (r.x_lo, r.x_hi) if math.isfinite(c)]
    points += [(min(max(row_argmin(c), r.x_lo), r.x_hi), c) for c in (r.y_lo, r.y_hi) if math.isfinite(c)]
    return min((rate(z1, z2) for z1, z2 in points if math.isfinite(z1) and math.isfinite(z2)), default=INF)


def md_event_rate(model: HoldingTimeModel, region) -> float:
    """Infimum of the moderate quadratic rate over a region, by :func:`region_min`.

    On the line n.z = c, psi* is least at its stationary point: c^2 / (2 n^T C n) = c^2 / (4 psi(n)),
    INF for n = 0.  On a line of fixed z2 it is least at z1 = 3 z2/2.
    """

    def line(normal, offset):
        q = 4.0 * psi(model, *normal)
        return offset**2 / q if q else INF

    def other(region):
        raise TypeError(f"unsupported region type {type(region).__name__}")

    return region_min(region, (0.0, 0.0), lambda z1, z2: psi_star(model, z1, z2), lambda z2: 1.5 * z2,
                      line, other)
