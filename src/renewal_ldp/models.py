"""Holding-time distribution models described by their cumulant generating function.

Every supported kind is one row of :data:`MODEL_TABLE`: its parameter names,
the effective domain of phi, phi and its first three derivatives on the interior
of that domain, closed forms of L(a1, a2) = integral_0^1 phi(a1 + a2*y) dy and of
its gradient and Hessian (but for the inverse-Gaussian, whose joint rate is in
closed form) as means over the segment of (a1, a2), and an exact sampler.  All
holding times are positive and light-tailed: phi is finite on a right
neighborhood of 0 and its domain has a finite boundary.
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
    _means: Callable[[float, float, float], tuple] = field(repr=False)
    _curvatures: Optional[Callable[[float, float, float], tuple]] = field(repr=False)
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

    def means(self, a1: float, a2: float) -> tuple[float, float, float]:
        """Closed forms at a tilt of D(L): L(a1, a2), d1L and the (1 - y) mean of phi'.

        The table holds the means of phi, phi' and (1 - y) phi'(lo + |a2| y)
        over the segment [lo, hi] of length |a2|; a2 < 0 runs it backwards,
        which is the reflection L(a1, a2) = L(a1 + a2, -a2) (y -> 1 - y).
        """
        if a2 < 0.0:
            return self._means(a1 + a2, a1, -a2)
        return self._means(a1, a1 + a2, a2)

    def curvatures(self, a1: float, a2: float) -> tuple[float, float, float]:
        """The Hessian of L at a2 < 0 as (r1, r2, rho): H11 = r1^2, H22 = r2^2, H12 = rho r1 r2."""
        # H11, H12 and H22 are the means of phi'', (1 - y) phi'' and (1 - y)^2 phi'' over the segment of
        # means(); far out they fall like 1/|a|^2 out of the doubles and their ratios span 1e300, where
        # the roots and the correlation stay in range.  The inverse-Gaussian row has none: its joint rate
        # is in closed form
        return self._curvatures(a1 + a2, a1, -a2)

    def sample(self, rng: np.random.Generator, size=None):
        """Exact variates of the holding-time law."""
        return self._sampler(rng, size)

    def descriptor(self) -> dict:
        """JSON-serializable model descriptor."""
        return {"kind": self.kind, "params": dict(self.params)}


# ---------------------------------------------------------------------------
# closed forms over a segment [lo, hi] of length width >= 0, with hi in the
# domain of phi: the means of phi (that is L), of phi' (that is d1L) and of
# (1 - y) phi'(lo + width y) over y in (0, 1), and those of phi'' times 1, (1 - y)
# and (1 - y)^2 (the curvatures, as the square roots of the first and last and
# their correlation), and beside them the inverse-Gaussian joint rate.  They are written so that nothing
# is divided by the width after a subtraction (finite differences of L at step
# 1e-5 must see roundoff only at the last bit), and near the boundary they use
# the distance of hi from it, which is what the domain check has seen.


def _gamma_means(shape: float, rate: float, lo: float, hi: float, width: float) -> tuple:
    """The means for phi(a) = -shape log(1 - a/rate), from r = width/(rate - lo).

    The mean of phi is shape (-log1p(-lo/rate) + h(r)), where h(r) = 1 + (1 -
    r) log(1 - r)/r is the mean of -log(1 - r*y) over y in (0, 1), and h(1) =
    1 at the integrable open boundary.  D = -log(1 - r)/r and E = h(r)/r are
    the means of 1/(1 - r*y) and (1 - y)/(1 - r*y), so those of phi' are shape
    D and shape E over rate - lo.  Below r = 1e-4 all three are short series.
    """
    d0 = rate - lo
    r = width / d0
    if r < 1e-4:
        E = 0.5 + r * (1.0 / 6.0 + r * (1.0 / 12.0 + r / 20.0))
        D, h = 1.0 + r * (0.5 + r * (1.0 / 3.0 + r / 4.0)), r * E
    else:
        s = 1.0 - r if r < 0.5 else (rate - hi) / d0  # from r = 1/2 on, hi's distance to the boundary
        log_s = math.log1p(-r) if r < 0.5 else math.log(s) if s > 0.0 else -INF
        h = 1.0 + s * log_s / r if s > 0.0 else 1.0
        D, E = -log_s / r, h / r
    return shape * (-math.log1p(-lo / rate) + h), shape * D / d0, shape * E / d0


# series in r of the (1 - y) and (1 - y)^2 means of 1/(1 - r y)^2 and of the (1 - y)^2 mean of
# 1/(1 - r y)^3, whose n-th coefficients are 1/(n + 2), 2/((n + 2)(n + 3)) and 1/(n + 3), highest
# first.  The closed forms lose eps/r^2 to cancellation, so the series runs up to r = 1/10, where
# 17 terms leave less than 1e-17.
_CURVATURE_SERIES = tuple((1.0 / (n + 2), 2.0 / ((n + 2) * (n + 3)), 1.0 / (n + 3)) for n in reversed(range(17)))


def _power_curvatures(c2: float, c3: float, rate: float, lo: float, hi: float, width: float) -> tuple:
    # phi'' = c2/d^2 + c3/d^3 with d = rate - a = d0 (1 - r y), from d0 down to gap = rate - hi = d0 s.
    # With D = -log(s)/r, the mean of 1/(1 - r y), the means of (1 - y)/(1 - r y)^2, (1 - y)^2/(1 - r y)^2
    # and (1 - y)^2/(1 - r y)^3 are m1 = (D - 1)/r, m2 = (1 + s - 2 s D)/r^2 and n2 = (D - 2 + (1 + s)/2)/r^2,
    # and those of phi'', (1 - y) phi'' and (1 - y)^2 phi'' are (c2 + c3 (1 + s)/(2 gap))/(d0 gap),
    # (c2 m1 + c3/(2 gap))/d0^2 and (c2 m2 + c3 n2/d0)/d0^2.  The square roots and the correlation take
    # d0 and gap apart, which can be 1e300 and 1e-16
    d0, gap = rate - lo, rate - hi
    r = width / d0
    s = 1.0 - r if r < 0.5 else gap / d0
    if r < 0.1:
        m1 = m2 = n2 = 0.0
        for b1, b2, b3 in _CURVATURE_SERIES:
            m1, m2, n2 = b1 + r * m1, b2 + r * m2, b3 + r * n2
    else:
        D = -(math.log1p(-r) if r < 0.5 else math.log(s) if s > 0.0 else -INF) / r
        m1, m2, n2 = (D - 1.0) / r, (1.0 + s - 2.0 * s * D) / r / r, (D - 2.0 + 0.5 * (1.0 + s)) / r / r
    root_d0, root_gap = math.sqrt(d0), math.sqrt(gap)
    k1, k2 = math.sqrt(c2 + c3 * (1.0 + s) / (2.0 * gap)), math.sqrt(c2 * m2 + c3 * n2 / d0)
    return k1 / root_d0 / root_gap, k2 / d0, (c2 * m1 + 0.5 * c3 / gap) * root_gap / root_d0 / k1 / k2


def _inverse_gaussian_means(mu: float, lo: float, hi: float, width: float) -> tuple:
    # s = sqrt(mu^2 - 2a) at both ends, 2 width = s0^2 - s1^2 and phi' = 1/s: the mean of
    # phi is (s0^3 - s1^3)/(3 width), of phi' 2/(s0 + s1), of (1 - y) phi' 2(s0 + 2 s1)/(3(s0 + s1)^2)
    s0 = math.sqrt(max(mu**2 - 2.0 * lo, 0.0))
    s1 = math.sqrt(max(mu**2 - 2.0 * hi, 0.0))
    limit, d1 = mu - 2.0 * (s0 * s0 + s0 * s1 + s1 * s1) / (3.0 * (s0 + s1)), 2.0 / (s0 + s1)
    return limit, d1, d1 * (s0 + 2.0 * s1) / (3.0 * (s0 + s1))


def _inverse_gaussian_rate(mu: float, z1: float, w: float) -> tuple:
    """(a1, a2, I) at (z1, w), 0 < w < z1/2: the joint rate and its tilt, RootError where that is not a double."""
    # phi is the passage law of Brownian motion with drift mu, and I = phi*(z1) + J(z1, w) with
    # phi*(z1) = (mu z1 - 1)^2/(2 z1) and J, free of mu, the rate of a Brownian-bridge area.  On the closed
    # face a1 = mu^2/2, L = mu - (2/3) sqrt(-2 a2) is least at a2 = -2/(9 w^2), where d1L = 3w: the optimum
    # for 3w <= z1, with J = 2/(9w) - 1/(2 z1).  Inside, grad L = (z1, w) in s = sqrt(mu^2 - 2a), s1 at the
    # segment's top and s0 at its foot, gives s0 + s1 = 2/z1 and s1 = (6w/z1 - 2)/z1 = (1 + 6d)/z1 with
    # d = (w - z1/2)/z1, so the tilt ((mu^2 - s1^2)/2, (s1^2 - s0^2)/2) is ((mu^2 - s1^2)/2, 12 d/z1^2) and
    # J = 6 d^2/z1.  No square of mu z1 - 1 or power of z1 is formed, so nothing overflows where I is a double
    u = mu * z1 - 1.0
    if 3.0 * w <= z1:
        a1, a2, bridge = 0.5 * mu * mu, -2.0 / (9.0 * w) / w, 2.0 / (9.0 * w) - 0.5 / z1
    else:
        d = (w - 0.5 * z1) / z1
        s1 = (1.0 + 6.0 * d) / z1
        a1, a2, bridge = 0.5 * (mu - s1) * (mu + s1), 12.0 * d / z1 / z1, 6.0 * d * d / z1
    if not (math.isfinite(a1) and math.isfinite(a2)):
        raise RootError(f"the optimal tilt ({a1}, {a2}) for z = ({z1}, {w}) is not a double")
    return a1, a2, u * (u / (2.0 * z1)) + bridge


def _noncentral_chi_squared_means(lam: float, k: float, lo: float, hi: float, width: float) -> tuple:
    # lam*a/(1-2a) = (lam/2)(1/u - 1) with u = 1 - 2a, and -(k/2) log(u) is k/2 times the gamma
    # form at shape 1, rate 1/2, whose means P and Q of phi' and (1 - y) phi' are twice those
    # of 1/u; 1/u^2 averages to 1/(u0 u1) and (1 - y)/u^2 to (P - Q)/(2 u0)
    mean, P, Q = _gamma_means(1.0, 0.5, lo, hi, width)
    u0 = 1.0 - 2.0 * lo
    return (0.5 * lam * (0.5 * P - 1.0) + 0.5 * k * mean, lam / (u0 * (1.0 - 2.0 * hi)) + 0.5 * k * P,
            0.5 * (lam * (P - Q) / u0 + k * Q))


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
    means: Callable[..., tuple]  # (*args, lo, hi, width) -> means of phi, phi' and (1 - y) phi'
    sampler: Callable            # (*args, rng, size) -> variates
    sampler_spec: str
    # (*args, lo, hi, width) -> the means of (1 - y)^k phi'', k = 0, 1, 2, as the roots of the first and
    # last and their correlation: the Hessian of the Newton ascent, which a closed-form rate needs not
    curvatures: Optional[Callable[..., tuple]] = None


_GAMMA_FUNCTIONS = dict(
    boundary=lambda shape, rate: rate,
    # log1p keeps phi's relative accuracy next to a = 0, where phi* is small
    cgf=lambda shape, rate, a: -shape * math.log1p(-a / rate),
    cgf_d1=lambda shape, rate, a: shape / (rate - a),
    # products, not powers: far below 0, where ** raises OverflowError, a product overflows to inf and
    # the quotient falls to 0
    cgf_d2=lambda shape, rate, a: shape / ((d := rate - a) * d),
    cgf_d3=lambda shape, rate, a: 2.0 * shape / ((d := rate - a) * d * d),
    means=_gamma_means,
    curvatures=lambda shape, rate, lo, hi, width: _power_curvatures(shape, 0.0, rate, lo, hi, width),
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
        means=_inverse_gaussian_means,
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
        means=_noncentral_chi_squared_means,
        curvatures=lambda lam, k, lo, hi, width: _power_curvatures(0.5 * k, 0.5 * lam, 0.5, lo, hi, width),
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
        _means=partial(row.means, *args),
        _curvatures=partial(row.curvatures, *args) if row.curvatures else None,
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


_RTOL = 4 * sys.float_info.epsilon  # brentq's least relative tolerance


class RootError(ArithmeticError):
    """A bracketed root search failed: no sign change, a NaN, or maxiter steps spent."""


def brent(f: Callable[[float], float], xa: float, xb: float, fa: float, fb: float,
          xtol: float, maxiter: int = 100) -> tuple[float, int]:
    """Root of f in the bracket [xa, xb], given fa = f(xa) and fb = f(xb), with the iterations spent.

    Brent (1973), the zeroin variant that SciPy's brentq runs
    (scipy/optimize/Zeros/brentq.c) at its default rtol, step for step: it
    stops when half the bracket is below (xtol + 4 eps |x|)/2 or f(x) == 0.
    Where C divides by zero and its inf or NaN fails the step test, this
    bisects.
    """
    xpre, xcur, fpre, fcur = xa, xb, float(fa), float(fb)
    if fpre == 0.0:
        return xpre, 0
    if fcur == 0.0:
        return xcur, 0
    if math.isnan(fpre) or math.isnan(fcur):
        raise RootError(f"f is NaN at a bracket end: f({xa!r}) = {fpre}, f({xb!r}) = {fcur}")
    if (fpre < 0.0) == (fcur < 0.0):
        raise RootError(f"f({xa!r}) = {fpre} and f({xb!r}) = {fcur} have the same sign")
    xblk = fblk = spre = scur = 0.0
    for iterations in range(1, maxiter + 1):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk, spre, scur = xpre, fpre, xcur - xpre, xcur - xpre
        if abs(fblk) < abs(fcur):  # xcur holds the smaller residual
            xpre, xcur, xblk, fpre, fcur, fblk = xcur, xblk, xcur, fcur, fblk, fcur
        delta = (xtol + _RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur, iterations
        stry = INF  # bisect unless interpolation gives a short step
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # secant
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # inverse quadratic
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                pass
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = float(f(xcur))
        if math.isnan(fcur):
            raise RootError(f"f({xcur!r}) is NaN")
    raise RootError(f"no root to tolerance in {maxiter} iterations; last iterate {xcur!r}")


def increasing_root(f: Callable[[float], float], top: float, scale: Optional[float] = None,
                    start: Optional[float] = None) -> tuple[float, int]:
    """Root of an increasing function f on (-inf, top], with the iterations spent.

    Every transform in the package maximises a concave objective whose
    derivative is -f; when f(top) <= 0 the maximiser is top, a face of the
    domain.  The bracket grows from a first point by steps that double: from
    top, with a first step of ``scale`` (|top| by default, 1 when top is 0),
    or from a ``start`` below top, such as a nearby root, with a first step
    of scale/10.  Where f > 0 at the first point it steps down until f < 0
    (OverflowError if it leaves the doubles first); where f <= 0 it steps up,
    capped at top, and returns top if f(top) <= 0.  :func:`brent` finds the
    root from the two bracket values already computed.  It stops when the
    bracket is narrower than 4 eps (|root| + scale): relative to the root,
    and to the scale of the search for a root at or next to 0.
    """
    if scale is None:
        scale = abs(top) or 1.0
    x, step = (top, scale) if start is None else (min(start, top), 0.1 * scale)
    f_x, doublings, lo = float(f(x)), 0, None
    while f_x <= 0.0:
        if x == top:
            return top, doublings
        lo, f_lo, x = x, f_x, min(x + step, top)
        f_x, step, doublings = float(f(x)), 2.0 * step, doublings + 1
    hi, f_hi = x, f_x
    if lo is None:
        while (f_lo := float(f(x - step))) > 0.0:
            hi, f_hi, step, doublings = x - step, f_lo, 2.0 * step, doublings + 1
            if math.isinf(x - step):
                raise OverflowError(f"no finite bracket below {x} for an increasing root")
        lo = x - step
    root, iterations = brent(f, lo, hi, f_lo, f_hi, xtol=_RTOL * scale)
    return root, doublings + iterations


def reject_nan(*levels: float) -> None:
    """Raise ValueError for a NaN level at the entry of a rate function or an event, before any solver sees it."""
    for z in levels:
        if z != z:
            raise ValueError(f"a level is NaN: {levels}")


def phi_star(model: HoldingTimeModel, z1: float) -> RateEvaluation:
    """One-dimensional Legendre transform sup_a {a*z1 - phi(a)}.

    Infinite for z1 <= 0 (holding times are positive) and at z1 = inf; zero
    exactly at the mean z1 = phi'(0).  The maximiser is the root of
    phi'(a) = z1 below the boundary, with the exponential closed form
    short-circuited.  ValueError for a NaN z1.
    """
    reject_nan(z1)
    if z1 <= 0.0 or z1 == INF:
        return RateEvaluation(INF, method="closed_form")
    if model.kind == "exponential":
        lam = model.domain.boundary
        value = lam * z1 - 1.0 - math.log(lam * z1)
        return RateEvaluation(max(value, 0.0), argmax_tilt=(lam - 1.0 / z1,), method="closed_form")
    top = model.domain.search_top(finite_at_face=False)
    root, iterations = increasing_root(lambda a: model.cgf_d1(a) - z1, top)
    return RateEvaluation(max(root * z1 - model.cgf(root), 0.0), argmax_tilt=(root,),
                          iterations=iterations, method="monotone_root")


BUILTIN_MODELS = {kind: dict(zip(row.params, row.example)) for kind, row in MODEL_TABLE.items()}


def builtin_models() -> list[HoldingTimeModel]:
    """One representative instance of each supported kind (used across the tests)."""
    return [make_model(kind, dict(params)) for kind, params in BUILTIN_MODELS.items()]
