"""Holding-time distribution models described by their cumulant generating function.

Every supported kind is one row of :data:`MODEL_TABLE`: its parameter names,
the effective domain of phi, phi and its first three derivatives on the
interior of that domain, the closed form of the limit function
L(a1, a2) = integral_0^1 phi(a1 + a2*y) dy, and an exact sampler.  All holding
times are positive and light-tailed: phi is finite on a right neighborhood
of 0 and its domain has a finite boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from typing import Callable, Optional

import numpy as np
from scipy.optimize import brentq

INF = float("inf")


class LscCase(Enum):
    """Domain taxonomy for the bivariate limit function built on phi."""

    CLOSED_BOUNDARY = "closed_boundary"        # D(phi)=(-inf, abar]; Lambda lsc
    OPEN_INTEGRABLE = "open_integrable"        # open boundary, phi integrable; Lambda not lsc
    OPEN_NONINTEGRABLE = "open_nonintegrable"  # open boundary, phi not integrable; Lambda lsc


@dataclass(frozen=True)
class DomainSpec:
    """Effective domain of phi: (-inf, boundary) or (-inf, boundary]."""

    boundary: float                  # abar in (0, inf)
    boundary_closed: bool            # abar itself in D(phi)
    integrable_at_boundary: bool     # int phi finite on a left neighborhood of abar

    def __post_init__(self):
        if not 0.0 < self.boundary < INF:
            raise ValueError(f"domain boundary must be finite and positive, got {self.boundary}")

    def contains(self, alpha: float) -> bool:
        if self.boundary_closed:
            return alpha <= self.boundary
        return alpha < self.boundary


@dataclass(frozen=True)
class HoldingTimeModel:
    """A positive light-tailed holding-time law, seen through its CGF."""

    kind: str
    params: dict
    domain: DomainSpec
    cgf: Callable[[float], float]
    cgf_d1: Callable[[float], float]
    cgf_d2: Callable[[float], float]
    cgf_d3: Callable[[float], float]
    _limit: Callable[[float, float], float] = field(repr=False)
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

    def limit(self, a1: float, a2: float) -> float:
        """Closed form of L(a1, a2) for a2 != 0 with (a1, a2) in D(L).

        The table holds the mean of phi over a segment [lo, hi] of length
        |a2|; a2 < 0 runs the segment backwards, which is the reflection
        L(a1, a2) = L(a1 + a2, -a2) (substitute y -> 1 - y).
        """
        if a2 < 0.0:
            return self._limit(a1 + a2, a1, -a2)
        return self._limit(a1, a1 + a2, a2)

    def sample(self, rng: np.random.Generator, size=None):
        """Exact variates of the holding-time law."""
        return self._sampler(rng, size)

    def descriptor(self) -> dict:
        """JSON-serializable model descriptor."""
        return {"kind": self.kind, "params": dict(self.params)}


# ---------------------------------------------------------------------------
# closed forms of L: the mean of phi over a segment [lo, hi] of length width > 0,
# with hi in the domain of phi.  They are written so that nothing is divided by
# the width after a subtraction (finite differences of L at step 1e-5 must see
# roundoff only at the last bit), and near the boundary they use the distance
# of hi from it, which is what the domain check has seen.


def _log_limit(rate: float, lo: float, hi: float, width: float) -> float:
    """Mean of -log(1 - a/rate) over [lo, hi].

    With r = width/(rate - lo) the mean is -log1p(-lo/rate) + h(r), where
    h(r) = 1 + (1 - r) log(1 - r)/r is the mean of -log(1 - r*y) over y in
    (0, 1): a short series below r = 1e-4, and h(1) = 1 at the integrable
    open boundary.
    """
    d0 = rate - lo
    r = width / d0
    if r < 1e-4:
        h = r * (0.5 + r * (1.0 / 6.0 + r * (1.0 / 12.0 + r / 20.0)))
    elif r < 0.5:
        h = 1.0 + (1.0 - r) * math.log1p(-r) / r
    else:
        s = (rate - hi) / d0  # 1 - r
        h = 1.0 + s * math.log(s) / r if s > 0.0 else 1.0
    return -math.log1p(-lo / rate) + h


def _gamma_limit(shape: float, rate: float, lo: float, hi: float, width: float) -> float:
    return shape * _log_limit(rate, lo, hi, width)


def _inverse_gaussian_limit(mu: float, lo: float, hi: float, width: float) -> float:
    # (s0^3 - s1^3)/(3 width) with 2 width = s0^2 - s1^2, s = sqrt(mu^2 - 2a) at both ends
    s0 = math.sqrt(max(mu**2 - 2.0 * lo, 0.0))
    s1 = math.sqrt(max(mu**2 - 2.0 * hi, 0.0))
    return mu - 2.0 * (s0 * s0 + s0 * s1 + s1 * s1) / (3.0 * (s0 + s1))


def _noncentral_chi_squared_limit(lam: float, k: float, lo: float, hi: float, width: float) -> float:
    # lam*a/(1-2a) = (lam/2)(1/(1-2a) - 1), and 1/(1-2a) averages to a log ratio
    u0 = 1.0 - 2.0 * lo
    r = 2.0 * width / u0
    log_ratio = -math.log1p(-r) if r < 0.5 else math.log(u0 / (1.0 - 2.0 * hi))
    return 0.5 * lam * (log_ratio / (2.0 * width) - 1.0) + 0.5 * k * _log_limit(0.5, lo, hi, width)


def _gamma_cgf(shape: float, rate: float, a: float) -> float:
    return shape * math.log(rate / (rate - a))


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
    case: LscCase
    cgf: Callable[..., float]
    cgf_d1: Callable[..., float]
    cgf_d2: Callable[..., float]
    cgf_d3: Callable[..., float]
    limit: Callable[..., float]  # (*args, lo, hi, width) -> mean of phi over [lo, hi]
    sampler: Callable            # (*args, rng, size) -> variates
    sampler_spec: str


_GAMMA_FUNCTIONS = dict(
    boundary=lambda shape, rate: rate,
    cgf=_gamma_cgf,
    cgf_d1=lambda shape, rate, a: shape / (rate - a),
    cgf_d2=lambda shape, rate, a: shape / (rate - a) ** 2,
    cgf_d3=lambda shape, rate, a: 2.0 * shape / (rate - a) ** 3,
    limit=_gamma_limit,
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
        limit=_inverse_gaussian_limit,
        sampler=lambda mu, rng, size: rng.wald(mean=1.0 / mu, scale=1.0, size=size),
        sampler_spec="Michael-Schucany-Haas transform (numpy wald)",
    ),
    "noncentral_chi_squared": ModelKind(
        params=("lam", "k"), example=(1.0, 1.0),
        cgf_text="lam a/(1-2a) - (k/2) log(1-2a) on (-inf, 1/2)",
        boundary=lambda lam, k: 0.5,
        case=LscCase.OPEN_NONINTEGRABLE,
        cgf=lambda lam, k, a: lam * a / (1.0 - 2.0 * a) - 0.5 * k * math.log(1.0 - 2.0 * a),
        cgf_d1=lambda lam, k, a: lam / (1.0 - 2.0 * a) ** 2 + k / (1.0 - 2.0 * a),
        cgf_d2=lambda lam, k, a: 4.0 * lam / (1.0 - 2.0 * a) ** 3 + 2.0 * k / (1.0 - 2.0 * a) ** 2,
        cgf_d3=lambda lam, k, a: 24.0 * lam / (1.0 - 2.0 * a) ** 4 + 8.0 * k / (1.0 - 2.0 * a) ** 3,
        limit=_noncentral_chi_squared_limit,
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
        domain=DomainSpec(boundary, boundary_closed=row.case is LscCase.CLOSED_BOUNDARY,
                          integrable_at_boundary=row.case is not LscCase.OPEN_NONINTEGRABLE),
        cgf=partial(row.cgf, *args),
        cgf_d1=partial(row.cgf_d1, *args),
        cgf_d2=partial(row.cgf_d2, *args),
        cgf_d3=partial(row.cgf_d3, *args),
        _limit=partial(row.limit, *args),
        sampler_spec=row.sampler_spec,
        _sampler=partial(row.sampler, *args),
    )


def model_of(kind: str, *values: float) -> HoldingTimeModel:
    """Build a model from positional parameters, in the order of its table row."""
    names = _row(kind).params
    if len(values) != len(names):
        raise ValueError(f"model {kind!r} expects {len(names)} parameter(s), got {len(values)}")
    return make_model(kind, dict(zip(names, values)))


def model_from_descriptor(desc: dict) -> HoldingTimeModel:
    """Inverse of :meth:`HoldingTimeModel.descriptor`."""
    return make_model(desc["kind"], dict(desc["params"]))


def parse_model_spec(text: str) -> HoldingTimeModel:
    """Parse the ``kind:param[,param]`` CLI mini-syntax.

    Parameters are positional in the order of the kind's table row, e.g.
    ``exponential:1``, ``gamma:2,2``, ``noncentral_chi_squared:1,1``.
    """
    kind, _, raw = text.partition(":")
    values = [float(v) for v in raw.split(",")] if raw else []
    return model_of(kind.strip(), *values)


def classify_domain(model: HoldingTimeModel) -> LscCase:
    """Place the model in the three-bullet domain taxonomy."""
    dom = model.domain
    if dom.boundary_closed:
        return LscCase.CLOSED_BOUNDARY
    if dom.integrable_at_boundary:
        return LscCase.OPEN_INTEGRABLE
    return LscCase.OPEN_NONINTEGRABLE


@dataclass
class RateEvaluation:
    """Value of a rate function together with the optimizing tilt and diagnostics."""

    value: float
    argmax_tilt: Optional[tuple] = None
    converged: bool = True
    iterations: int = 0
    method: str = "closed_form"
    on_boundary: bool = False


def phi_star(model: HoldingTimeModel, z1: float) -> RateEvaluation:
    """One-dimensional Legendre transform sup_a {a*z1 - phi(a)}.

    Infinite for z1 <= 0 (holding times are positive); zero exactly at the
    mean z1 = phi'(0).  Solved by the monotone root phi'(a) = z1, with the
    exponential closed form short-circuited.
    """
    if z1 <= 0.0:
        return RateEvaluation(INF, method="closed_form")
    if model.kind == "exponential":
        lam = model.domain.boundary
        value = lam * z1 - 1.0 - math.log(lam * z1)
        return RateEvaluation(max(value, 0.0), argmax_tilt=(lam - 1.0 / z1,), method="closed_form")
    root, iters, ok = _solve_phi_prime(model, z1)
    if not ok:
        return RateEvaluation(
            max(root * z1 - model.phi(root), 0.0),
            argmax_tilt=(root,),
            converged=False,
            iterations=iters,
            method="newton",
        )
    value = root * z1 - model.cgf(root)
    return RateEvaluation(max(value, 0.0), argmax_tilt=(root,), iterations=iters, method="newton")


def _solve_phi_prime(model: HoldingTimeModel, z1: float, maxiter: int = 200):
    """Unique root of phi'(a) = z1 on the interior of D(phi).

    phi' is strictly increasing, so a bracketed solve is safe: the lower end
    expands to -inf, the upper end approaches the boundary geometrically.
    """
    abar = model.domain.boundary
    lo = -1.0
    iters = 0
    while model.cgf_d1(lo) > z1 and iters < maxiter:
        lo *= 2.0
        iters += 1
    hi = 0.5 * abar
    while model.cgf_d1(hi) < z1 and iters < maxiter:
        hi = abar - (abar - hi) * 0.5
        iters += 1
    if iters >= maxiter:
        return hi, iters, False
    root = brentq(lambda a: model.cgf_d1(a) - z1, lo, hi, xtol=1e-14, rtol=1e-15)
    return root, iters, True


BUILTIN_MODELS = {kind: dict(zip(row.params, row.example)) for kind, row in MODEL_TABLE.items()}


def builtin_models() -> list[HoldingTimeModel]:
    """One representative instance of each supported kind (used across the tests)."""
    return [make_model(kind, dict(params)) for kind, params in BUILTIN_MODELS.items()]
