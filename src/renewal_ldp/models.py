"""Holding-time distribution models described by their cumulant generating function.

Every supported kind is one row of :data:`MODEL_TABLE`: its parameter names,
the effective domain of phi, phi and its first three derivatives on the interior
of that domain, the Legendre transform phi* and its tilt in closed form, closed
forms of L(a1, a2) = integral_0^1 phi(a1 + a2*y) dy and of its gradient and
Hessian as means over the segment of (a1, a2), and an exact sampler.  All
holding times are positive and light-tailed: phi is finite on a right
neighborhood of 0 and its domain has a finite boundary.

Every other one-dimensional dual sup_t [t c - K(t)] of the package is one
:func:`dual_newton`, a damped Newton ascent on the curvature K'' that each
caller has in closed form.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from typing import TYPE_CHECKING, Callable, Optional

if TYPE_CHECKING:  # numpy is loaded by the samplers' callers, not by the model table
    import numpy as np

INF = float("inf")


class LscCase(Enum):
    """Domain taxonomy for the bivariate limit function built on phi."""

    CLOSED_BOUNDARY = "closed_boundary"        # D(phi)=(-inf, abar]; Lambda lsc
    OPEN_INTEGRABLE = "open_integrable"        # open boundary, phi integrable; Lambda not lsc
    OPEN_NONINTEGRABLE = "open_nonintegrable"  # open boundary, phi not integrable; Lambda lsc


# the members as module names: on Python 3.11 LscCase.X costs about three times a whole contains()
_CLOSED, _NONINTEGRABLE = LscCase.CLOSED_BOUNDARY, LscCase.OPEN_NONINTEGRABLE


@dataclass(frozen=True)
class DomainSpec:
    """Effective domain of phi: (-inf, boundary) or (-inf, boundary], by its case."""

    boundary: float                  # abar in (0, inf)
    case: LscCase                    # closed, open integrable or open non-integrable boundary

    def __post_init__(self):
        if not 0.0 < self.boundary < INF:
            raise ValueError(f"domain boundary must be finite and positive, got {self.boundary}")

    @property
    def boundary_closed(self) -> bool:  # abar itself in D(phi)
        return self.case is _CLOSED

    @property
    def integrable_at_boundary(self) -> bool:  # int phi finite on a left neighborhood of abar
        return self.case is not _NONINTEGRABLE

    def contains(self, alpha: float) -> bool:
        if self.case is _CLOSED:  # not the property: every phi evaluation comes here
            return alpha <= self.boundary
        return alpha < self.boundary

    def search_top(self, finite_at_face: bool) -> float:
        """Highest tilt at which a root search evaluates its function.

        abar itself when it is closed and the function is finite there, else
        the last double below abar.  phi' is infinite at every built-in
        boundary, closed or open; the segment means d1L and d2L at a2 != 0
        are finite on a closed face, where phi' is integrable.
        """
        if finite_at_face and self.boundary_closed:
            return self.boundary
        return math.nextafter(self.boundary, -INF)


@dataclass(frozen=True)
class HoldingTimeModel:
    """A positive light-tailed holding-time law, seen through its CGF."""

    kind: str
    params: dict
    domain: DomainSpec
    cgf: Callable[[float], float]
    cgf_d1: Callable[[float], float]
    cgf_d2: Callable[[float], float]
    cgf_d3: Callable[[float], float]  # read by no code of the package; benchmark tracers replace it
    conjugate: Callable[[float], tuple]  # z -> (tilt, phi*(z)) at z > 0
    _segment: Callable[[float, float, float], tuple] = field(repr=False)
    sampler_spec: str = ""
    _sampler: Callable = field(default=None, repr=False)

    @property
    def mean(self) -> float:
        return self.cgf_d1(0.0)

    @property
    def variance(self) -> float:
        return self.cgf_d2(0.0)

    def phi(self, alpha: float) -> float:
        """Extended-real CGF value; +inf outside the effective domain."""
        if not self.domain.contains(alpha):
            return INF
        return self.cgf(alpha)

    def segment(self, a1: float, a2: float) -> tuple[float, float, float, tuple]:
        """Closed forms at a tilt of D(L): L(a1, a2), d1L, the (1 - y) mean of phi' and the Hessian (r1, r2, rho).

        The table's kernel gives, in one pass over the segment [lo, hi] of length |a2|, the means of phi,
        phi' and (1 - y) phi'(lo + |a2| y), and those of phi'', (1 - y) phi'' and (1 - y)^2 phi'' as
        H11 = r1^2, H22 = r2^2 and H12 = rho r1 r2, with r1 = inf and rho = 0 where phi'' is not integrable
        at the top.  a2 < 0 runs it backwards, which is the reflection L(a1, a2) = L(a1 + a2, -a2)
        (y -> 1 - y), so at a2 <= 0 the (1 - y) means are the y means: d2L and the Hessian of L.
        """
        # far out H11, H12 and H22 fall like 1/|a|^2 out of the doubles and their ratios span 1e300, where
        # the roots and the correlation (0 on a closed face) stay in range
        if a2 < 0.0:
            return self._segment(a1 + a2, a1, -a2)
        return self._segment(a1, a1 + a2, a2)

    def sample(self, rng: np.random.Generator, size=None):
        """Exact variates of the holding-time law."""
        return self._sampler(rng, size)

    def descriptor(self) -> dict:
        """JSON-serializable model descriptor."""
        return {"kind": self.kind, "params": dict(self.params)}


# ---------------------------------------------------------------------------
# the segment kernels: over a segment [lo, hi] of length width >= 0, with hi in
# the domain of phi, the means of phi (that is L), of phi' (that is d1L) and of
# (1 - y) phi'(lo + width y) over y in (0, 1), and those of phi'' times 1, (1 - y)
# and (1 - y)^2 (the Hessian, as the square roots of the first and last and
# their correlation), all from one pass; beside them phi* and the
# inverse-Gaussian joint rate.  They are written so that nothing is divided by
# the width after a subtraction (finite differences of L at step 1e-5 must see
# roundoff only at the last bit), and near the boundary they use the distance
# of hi from it, which is what the domain check has seen.


# series in r of the means of 1/(1 - r y) and (1 - y)/(1 - r y) (D and E), of (1 - y)/(1 - r y)^2 and
# (1 - y)^2/(1 - r y)^2 (m1 and m2) and of (1 - y)^2/(1 - r y)^3 (n2), whose n-th coefficients are 1/(n + 1),
# 1/((n + 1)(n + 2)), 1/(n + 2), 2/((n + 2)(n + 3)) and 1/(n + 3), highest first.  The closed forms lose eps/r
# (E) and eps/r^2 (m1, m2, n2) to cancellation, so the series runs up to r = 1/10, where 17 terms leave less
# than 1e-17
_POWER_SERIES = tuple((1.0 / (n + 1), 1.0 / ((n + 1) * (n + 2)), 1.0 / (n + 2), 2.0 / ((n + 2) * (n + 3)),
                       1.0 / (n + 3)) for n in reversed(range(17)))


def _power_segment(c1: float, rate: float, lo: float, hi: float, width: float, c2: float = 0.0) -> tuple:
    """(L, d1L, the (1 - y) mean of phi', (r1, r2, rho)) for phi'' = c1/d^2 + c2/d^3 with d = rate - a.

    Gamma is c2 = 0, phi = -c1 log(1 - a/rate); noncentral chi-squared is rate 1/2, c1 = k/2 and
    c2 = lam/2.  With r = width/(rate - lo) and s = 1 - r, D = -log(s)/r and E = h(r)/r are the means of
    1/(1 - r y) and (1 - y)/(1 - r y), where h(r) = 1 + s log(s)/r is that of -log(1 - r y), with
    h(1) = 1 at the integrable open boundary, where H11 and H12 are infinite: r1 = inf and rho = 0.
    Below r = 1/10 every mean is one series.
    """
    # d = d0 (1 - r y) falls from d0 to gap = d0 s.  The means of (1 - y)/(1 - r y)^2, (1 - y)^2/(1 - r y)^2
    # and (1 - y)^2/(1 - r y)^3 are m1 = (D - 1)/r, m2 = (1 + s - 2 s D)/r^2 and n2 = (D - 2 + (1 + s)/2)/r^2,
    # and those of phi'', (1 - y) phi'' and (1 - y)^2 phi'' are (c1 + c2 (1 + s)/(2 gap))/(d0 gap),
    # (c1 m1 + c2/(2 gap))/d0^2 and (c1 m2 + c2 n2/d0)/d0^2.  The square roots and the correlation take
    # d0 and gap apart, which can be 1e300 and 1e-16
    d0, gap = rate - lo, rate - hi
    r = width / d0
    s = 1.0 - r if r < 0.5 else gap / d0  # from r = 1/2 on, hi's distance to the boundary
    if r < 0.1:
        D = E = m1 = m2 = n2 = 0.0
        for b1, b2, b3, b4, b5 in _POWER_SERIES:
            D, E, m1, m2, n2 = b1 + r * D, b2 + r * E, b3 + r * m1, b4 + r * m2, b5 + r * n2
        h = r * E
    else:
        log_s = math.log1p(-r) if r < 0.5 else math.log(s) if s > 0.0 else -INF
        h = 1.0 + s * log_s / r if s > 0.0 else 1.0
        D, E = -log_s / r, h / r
        twice_s_D = 2.0 * s * D if s > 0.0 else 0.0  # s D -> 0 as the top reaches an integrable boundary
        m1, m2, n2 = (D - 1.0) / r, (1.0 + s - twice_s_D) / r / r, (D - 2.0 + 0.5 * (1.0 + s)) / r / r
    log_mean = -math.log1p(-lo / rate) + h  # the mean of -log(1 - a/rate)
    if c2 == 0.0:
        value, d1, tail = c1 * log_mean, c1 * D / d0, c1 * E / d0
    else:
        # lam = 2 c2 and k = 2 c1.  lam a/(1 - 2a) = (lam/2)(1/u - 1) with u = 1 - 2a: the means P and Q of
        # 1/d and (1 - y)/d are twice those of 1/u and (1 - y)/u, and 1/u^2 averages to 1/(u0 u1) and
        # (1 - y)/u^2 to (P - Q)/(2 u0)
        P, Q = D / d0, E / d0
        u0 = 1.0 - 2.0 * lo
        value = c2 * (0.5 * P - 1.0) + c1 * log_mean
        d1 = 2.0 * c2 / (u0 * (1.0 - 2.0 * hi)) + c1 * P
        tail = 0.5 * (2.0 * c2 * (P - Q) / u0 + 2.0 * c1 * Q)
    if gap == 0.0:  # the top on the open integrable boundary, c2 = 0: H22 is c1/width^2
        return value, d1, tail, (INF, math.sqrt(c1) / width, 0.0)
    root_d0, root_gap = math.sqrt(d0), math.sqrt(gap)
    # H22 d0^2 > 0 where width is hi - lo; lambda_eval's own a2 a few ulps from the boundary, with hi rounded,
    # can take the closed form below 0, and there the Hessian, which it does not read, is NaN
    k1, k22 = math.sqrt(c1 + c2 * (1.0 + s) / (2.0 * gap)), c1 * m2 + c2 * n2 / d0
    k2 = math.sqrt(k22) if k22 > 0.0 else math.nan
    return value, d1, tail, (k1 / root_d0 / root_gap, k2 / d0,
                             (c1 * m1 + 0.5 * c2 / gap) * root_gap / root_d0 / k1 / k2)


def _inverse_gaussian_segment(mu: float, lo: float, hi: float, width: float) -> tuple:
    # s = sqrt(mu^2 - 2a) at both ends, 2 width = s0^2 - s1^2, phi' = 1/s and phi'' = 1/s^3: the means of
    # phi, phi' and (1 - y) phi' are (s0^3 - s1^3)/(3 width), 2/(s0 + s1) and 2(s0 + 2 s1)/(3(s0 + s1)^2), and
    # those of phi'', (1 - y) phi'' and (1 - y)^2 phi'' are 2/(s0 s1 (s0 + s1)), 2/(s0 (s0 + s1)^2) and
    # 2(s0 + 3 s1)/(3 s0 (s0 + s1)^3), so their correlation is sqrt(3 s1/(s0 + 3 s1)); the first is infinite
    # on the closed face
    s0 = math.sqrt(max(mu**2 - 2.0 * lo, 0.0))
    s1 = math.sqrt(max(mu**2 - 2.0 * hi, 0.0))
    t = s0 + s1
    d1, root = 2.0 / t, math.sqrt(s0) * math.sqrt(t)
    return (mu - 2.0 * (s0 * s0 + s0 * s1 + s1 * s1) / (3.0 * t), d1, d1 * (s0 + 2.0 * s1) / (3.0 * t),
            ((math.sqrt(2.0 / s1) / root if s1 > 0.0 else INF), math.sqrt((2.0 * s0 + 6.0 * s1) / 3.0) / root / t,
             math.sqrt(3.0 * s1 / (s0 + 3.0 * s1))))


def _gamma_conjugate(shape: float, rate: float, z: float) -> tuple:
    # phi'(a) = z at a = rate - shape/z; in this order shape 1 gives lam z - 1 - log(lam z) bit for bit.
    # phi* is INF where rate z overflows, and where rate z/shape leaves the doubles its log is a sum of logs
    log_q = math.log(q) if 0.0 < (q := rate * z / shape) < INF else math.log(rate) + math.log(z) - math.log(shape)
    return rate - shape / z, (rate * z - shape - shape * log_q if rate * z < INF else INF)


def _inverse_gaussian_conjugate(mu: float, z: float) -> tuple:
    # phi'(a) = 1/sqrt(mu^2 - 2a) = z at a = (mu^2 - 1/z^2)/2, where phi*(z) = (mu z - 1)^2/(2 z); the
    # square of mu z - 1 is not formed, so the value overflows only where it is not a double
    u = mu * z - 1.0
    return 0.5 * (mu - 1.0 / z) * (mu + 1.0 / z), u * (u / (2.0 * z))


def _noncentral_chi_squared_conjugate(lam: float, k: float, z: float) -> tuple:
    # phi'(a) = lam/u^2 + k/u = z in u = 1 - 2a is z u^2 - k u - lam = 0, whose positive root is v = D/z
    # with D = k/2 + sqrt(k^2/4 + lam z); there, with w = 1/v, phi*(z) = (k/2)(w - 1 - log w) + (lam/2)(w - 1)^2,
    # which keeps its relative accuracy next to the mean, as the gamma form does.  w underflows only where
    # the tilt is not a double
    w = z / (d := 0.5 * k + math.hypot(0.5 * k, math.sqrt(lam) * math.sqrt(z)))
    log_w = math.log(w) if w > 0.0 else -INF
    return 0.5 - 0.5 * (d / z), 0.5 * k * (w - 1.0 - log_w) + 0.5 * lam * (w - 1.0) * (w - 1.0)


def _inverse_gaussian_rate(mu: float, z1: float, w: float) -> tuple:
    """(a1, a2, I) at (z1, w), 0 < w < z1/2: the joint rate and its tilt, RootError where that is not a double."""
    # phi is the passage law of Brownian motion with drift mu, and I = phi*(z1) + J(z1, w) with
    # phi*(z1) = (mu z1 - 1)^2/(2 z1) and J, free of mu, the rate of a Brownian-bridge area.  On the closed
    # face a1 = mu^2/2, L = mu - (2/3) sqrt(-2 a2) is least at a2 = -2/(9 w^2), where d1L = 3w: the optimum
    # for 3w <= z1, with J = 2/(9w) - 1/(2 z1).  Inside, grad L = (z1, w) in s = sqrt(mu^2 - 2a), s1 at the
    # segment's top and s0 at its foot, gives s0 + s1 = 2/z1 and s1 = (6w/z1 - 2)/z1 = (1 + 6d)/z1 with
    # d = (w - z1/2)/z1, so the tilt ((mu^2 - s1^2)/2, (s1^2 - s0^2)/2) is ((mu^2 - s1^2)/2, 12 d/z1^2) and
    # J = 6 d^2/z1.  No square of mu z1 - 1 or power of z1 is formed, so nothing overflows where I is a double
    if 3.0 * w <= z1:
        a1, a2, bridge = 0.5 * mu * mu, -2.0 / (9.0 * w) / w, 2.0 / (9.0 * w) - 0.5 / z1
    else:
        d = (w - 0.5 * z1) / z1
        s1 = (1.0 + 6.0 * d) / z1
        a1, a2, bridge = 0.5 * (mu - s1) * (mu + s1), 12.0 * d / z1 / z1, 6.0 * d * d / z1
    if not (math.isfinite(a1) and math.isfinite(a2)):
        raise RootError(f"the optimal tilt ({a1}, {a2}) for z = ({z1}, {w}) is not a double")
    return a1, a2, _inverse_gaussian_conjugate(mu, z1)[1] + bridge


@dataclass(frozen=True)
class ModelKind:
    """One row of the model table.

    The math callables and the sampler take the parameter values first, in
    the order of ``params``.
    """

    params: tuple
    example: tuple               # parameter values of the representative instance
    cgf_text: str                # phi and its domain, for the documentation
    boundary: Callable[..., float]
    case: LscCase                    # closed, open integrable or open non-integrable boundary
    cgf: Callable[..., float]
    cgf_d1: Callable[..., float]
    cgf_d2: Callable[..., float]
    cgf_d3: Callable[..., float]  # read by no code of the package; benchmark tracers replace it
    conjugate: Callable[..., tuple]  # (*args, z) -> the maximiser a of a z - phi(a) and phi*(z), at z > 0
    # (*args, lo, hi, width) -> the means of phi, phi' and (1 - y) phi' and, as the roots of the first and
    # last and their correlation, those of (1 - y)^k phi'', k = 0, 1, 2: L, its gradient and its Hessian
    segment: Callable[..., tuple]
    sampler: Callable            # (*args, rng, size) -> variates
    sampler_spec: str


_GAMMA_FUNCTIONS = dict(
    boundary=lambda shape, rate: rate,
    # log1p keeps phi's relative accuracy next to a = 0, where phi* is small
    cgf=lambda shape, rate, a: -shape * math.log1p(-a / rate),
    cgf_d1=lambda shape, rate, a: shape / (rate - a),
    # products, not powers: far below 0, where ** raises OverflowError, a product overflows to inf and
    # the quotient falls to 0
    cgf_d2=lambda shape, rate, a: shape / ((d := rate - a) * d),
    cgf_d3=lambda shape, rate, a: 2.0 * shape / ((d := rate - a) * d * d),
    conjugate=_gamma_conjugate,
    segment=_power_segment,  # c1 = shape, c2 = 0
)

MODEL_TABLE = {
    "exponential": ModelKind(
        params=("lam",), example=(1.0,),
        cgf_text="log(lam/(lam-a)) on (-inf, lam)",
        case=LscCase.OPEN_INTEGRABLE,
        # gamma with shape 1; only the sampler differs
        **{name: partial(f, 1.0) for name, f in _GAMMA_FUNCTIONS.items()},
        sampler=lambda rate, rng, size: rng.exponential(scale=1.0 / rate, size=size),
        sampler_spec="inverse-cdf exponential",
    ),
    "inverse_gaussian": ModelKind(
        params=("mu",), example=(1.0,),
        cgf_text="mu - sqrt(mu^2 - 2a) on (-inf, mu^2/2]",
        boundary=lambda mu: mu**2 / 2.0,
        case=LscCase.CLOSED_BOUNDARY,
        cgf=lambda mu, a: mu - math.sqrt(max(mu**2 - 2.0 * a, 0.0)),
        cgf_d1=lambda mu, a: (mu**2 - 2.0 * a) ** -0.5,
        cgf_d2=lambda mu, a: (mu**2 - 2.0 * a) ** -1.5,
        cgf_d3=lambda mu, a: 3.0 * (mu**2 - 2.0 * a) ** -2.5,
        conjugate=_inverse_gaussian_conjugate,
        segment=_inverse_gaussian_segment,
        sampler=lambda mu, rng, size: rng.wald(mean=1.0 / mu, scale=1.0, size=size),
        sampler_spec="Michael-Schucany-Haas transform (numpy wald)",
    ),
    "noncentral_chi_squared": ModelKind(
        params=("lam", "k"), example=(1.0, 1.0),
        cgf_text="lam a/(1-2a) - (k/2) log(1-2a) on (-inf, 1/2)",
        boundary=lambda lam, k: 0.5,
        case=LscCase.OPEN_NONINTEGRABLE,
        cgf=lambda lam, k, a: lam * a / (1.0 - 2.0 * a) - 0.5 * k * math.log(1.0 - 2.0 * a),
        # in u = 1 - 2a, by products as for gamma
        cgf_d1=lambda lam, k, a: lam / ((u := 1.0 - 2.0 * a) * u) + k / u,
        cgf_d2=lambda lam, k, a: 4.0 * lam / ((u := 1.0 - 2.0 * a) * u * u) + 2.0 * k / (u * u),
        cgf_d3=lambda lam, k, a: 24.0 * lam / ((u := 1.0 - 2.0 * a) * u * u * u) + 8.0 * k / (u * u * u),
        conjugate=_noncentral_chi_squared_conjugate,
        segment=lambda lam, k, lo, hi, width: _power_segment(0.5 * k, 0.5, lo, hi, width, 0.5 * lam),
        sampler=lambda lam, k, rng, size: rng.noncentral_chisquare(df=k, nonc=lam, size=size),
        sampler_spec="Poisson-mixed chi-squared (numpy noncentral_chisquare)",
    ),
    "gamma": ModelKind(
        params=("shape", "rate"), example=(2.0, 2.0),
        cgf_text="-shape log(1 - a/rate) on (-inf, rate)",
        case=LscCase.OPEN_INTEGRABLE,
        **_GAMMA_FUNCTIONS,
        sampler=lambda shape, rate, rng, size: rng.standard_gamma(shape, size=size) / rate,
        sampler_spec="Marsaglia-Tsang rejection (numpy standard_gamma)",
    ),
}


def _row(kind: str) -> ModelKind:
    row = MODEL_TABLE.get(kind)
    if row is None:
        raise ValueError(f"unknown model kind {kind!r}")
    return row


def make_model(kind: str, params: dict) -> HoldingTimeModel:
    """Build one of the supported holding-time models from its table row.

    Parameters must be finite and strictly positive.  The supported kinds,
    with their parameter names, CGFs phi(a) and domains, are the rows of
    :data:`MODEL_TABLE`.
    """
    for name, value in params.items():
        if not 0.0 < value < INF:
            raise ValueError(f"parameter {name!r} must be finite and strictly positive, got {value}")
    row = _row(kind)
    values = {name: params[name] for name in row.params}
    args = tuple(values.values())
    try:
        boundary = row.boundary(*args)
    except OverflowError as exc:
        raise ValueError(f"model {kind!r} with {values} overflows its domain boundary") from exc
    return HoldingTimeModel(
        kind=kind,
        params=values,
        domain=DomainSpec(boundary, row.case),
        cgf=partial(row.cgf, *args),
        cgf_d1=partial(row.cgf_d1, *args),
        cgf_d2=partial(row.cgf_d2, *args),
        cgf_d3=partial(row.cgf_d3, *args),
        conjugate=partial(row.conjugate, *args),
        _segment=partial(row.segment, *args),
        sampler_spec=row.sampler_spec,
        _sampler=partial(row.sampler, *args),
    )


def model_of(kind: str, *values: float) -> HoldingTimeModel:
    """Build a model from positional parameters, in the order of its table row."""
    names = _row(kind).params
    if len(values) != len(names):
        raise ValueError(f"model {kind!r} expects {len(names)} parameter(s), got {len(values)}")
    return make_model(kind, dict(zip(names, values)))


def parse_model_spec(text: str) -> HoldingTimeModel:
    """Parse the ``kind:param[,param]`` CLI mini-syntax.

    Parameters are positional in the order of the kind's table row, e.g.
    ``exponential:1``, ``gamma:2,2``, ``noncentral_chi_squared:1,1``.
    """
    kind, _, raw = text.partition(":")
    values = [float(v) for v in raw.split(",")] if raw else []
    return model_of(kind.strip(), *values)


@dataclass
class RateEvaluation:
    """Value of a rate function together with the optimizing tilt and diagnostics."""

    value: float
    argmax_tilt: Optional[tuple] = None
    converged: bool = True  # False only from kappa_star; a root solve converges or raises
    iterations: int = 0     # root-finding steps, inner solves included
    method: str = "closed_form"
    on_boundary: bool = False


_RTOL = 4 * sys.float_info.epsilon  # the roundoff of a sum of a few doubles, relative to its terms
# far from the optimum a Newton step about doubles |t|, so a tilt of 1e300 takes some 1000 steps
MAX_NEWTON_STEPS = 2100


class RootError(ArithmeticError):
    """A solve failed: the optimal tilt is not a double, or MAX_NEWTON_STEPS steps were spent."""


def dual_newton(terms: Callable[[float], Optional[tuple]], c: float, start: float,
                top: float) -> tuple[float, float, int]:
    """(t, g, steps): the maximiser t of the concave g(t) = t c - K(t) over t <= top, with g there.

    terms(t) gives (K, K', sqrt K'') at t, or None off the domain of K.  Damped Newton steps (c - K')/K''
    from start (Numerical Recipes 9.4; Boyd and Vandenberghe 2004, 9.5), stopped one step after the
    decrement (c - K')^2/K'' falls below the roundoff of g; a step that reaches top ends there where
    K'(top) <= c.  RootError where g or a step leaves the doubles, or after MAX_NEWTON_STEPS steps.
    """
    # the root of K'' stays in the doubles where K'' falls like 1/t^2.  top is tried once, by the first
    # step that reaches it.  A step is halved until it lands in the domain with g no lower up to its
    # roundoff 4 eps (|t c| + |K|), or, for the whole step, with a decrement four times smaller: K can
    # carry more error than that roundoff where it cancels (the inverse-Gaussian L near 0), and K'
    # still tells the way.  The settling step, whose gain is below that roundoff, is taken whole
    t, current, settled, tried = start, terms(start), False, top == INF
    for steps in range(MAX_NEWTON_STEPS + 1):
        if current is None or not current[2] > 0.0:
            raise RootError(f"K'' leaves the doubles at t = {t} for c = {c}")
        value, slope, root = current
        step = (u := (c - slope) / root) / root
        if not tried and (tried := t + step >= top) and (face := terms(top)) is not None and face[1] <= c:
            return top, top * c - face[0], steps  # c = inf too, where g is inf at top
        if not -INF < (g := t * c - value) < INF:
            raise RootError(f"g leaves the doubles at t = {t} for c = {c}")
        if settled or slope == c:
            return t, g, steps
        roundoff = _RTOL * (abs(t * c) + abs(value))
        if step != step or abs(step) == INF or t + step == -INF:
            raise RootError(f"the Newton step {step} from t = {t} for c = {c} leaves the doubles")
        settled, h = u * u <= roundoff, 1.0
        while not ((trial := t + h * step) <= top and (new := terms(trial)) is not None
                   and (trial * c - new[0] + roundoff >= g
                        or h == 1.0 and (settled or (c - new[1]) ** 2 < 0.25 * (u * new[2]) ** 2))):
            h *= 0.5
        t, current = trial, new
    raise RootError(f"no convergence in {MAX_NEWTON_STEPS} Newton steps for c = {c}")


def reject_nan(*levels: float) -> None:
    """Raise ValueError for a NaN level at the entry of a rate function or an event, before any solver sees it."""
    for z in levels:
        if z != z:
            raise ValueError(f"a level is NaN: {levels}")


def phi_star(model: HoldingTimeModel, z1: float) -> RateEvaluation:
    """One-dimensional Legendre transform sup_a {a*z1 - phi(a)}, from the model's closed form.

    Infinite for z1 <= 0 (holding times are positive) and at z1 = inf; zero exactly at the mean.
    The tilt is capped at the last double below the boundary, where phi' is infinite.  RootError
    where it is not a double; ValueError for a NaN z1.
    """
    reject_nan(z1)
    if z1 <= 0.0 or z1 == INF:
        return RateEvaluation(INF, method="closed_form")
    tilt, value = model.conjugate(z1)
    if not -INF < tilt < INF:
        raise RootError(f"the optimal tilt {tilt} for z1 = {z1} is not a double")
    return RateEvaluation(max(value, 0.0), argmax_tilt=(min(tilt, model.domain.search_top(finite_at_face=False)),),
                          method="closed_form")


BUILTIN_MODELS = {kind: dict(zip(row.params, row.example)) for kind, row in MODEL_TABLE.items()}


def builtin_models() -> list[HoldingTimeModel]:
    """One representative instance of each supported kind (used across the tests)."""
    return [make_model(kind, dict(params)) for kind, params in BUILTIN_MODELS.items()]
