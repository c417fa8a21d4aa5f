"""Exact Monte Carlo for the passage pair and its rare-event diagnostics.

Sampling uses the weighted holding-time representation: the passage time is a
sum of ceil(x) holding times and the area is the same draws weighted by
x, x-1, ...  Randomness comes from counter-based Philox streams keyed by
(master seed, block index) over fixed-size sample blocks, so the j-th sample
is identical no matter how blocks are distributed over workers, and merged
statistics are reproducible bit for bit.  A block is drawn in chunks but
reduced once, whole: the chunk size bounds memory and changes no result.
"""

from __future__ import annotations

import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional, Sequence

import numpy as np

from .lambda_surface import lambda_grad
from .models import INF, HoldingTimeModel, dual_newton
from .moderate import (
    HalfPlane,
    MarginalThreshold,
    ModerateScaling,
    _check_level,
    axis_threshold,
    md_event_rate,
    n_terms_for,
    passage_weights,
    region_min,
    sup_norm_exceedance,
)
from .rates import line_rate, marginal_I2, rate_ld

BLOCK_SIZE = 4096          # samples per random stream; independent of worker count
CHUNK_DRAWS = 1 << 16      # draws materialized at once, in at least 8 rows: 512 KiB, inside L2
N_RAYS = 64                # angles of the boundary search in ld_event_rate
# a ray's march: 0, then 8 steps per doubling from 2**-53 to the top of the doubles.  A ray that
# stays in the cone marches on r = mean * MARCH; one that leaves it at exit marches on
# r = exit * MARCH / (1 + MARCH), whose radii crowd both p and the cone edge.  A ray steps over
# an event it crosses within less than a factor 2**(1/8) in r, or in r / (exit - r); where it
# enters one, a bisection between two neighbouring radii finds the entry to one ulp.
MARCH = np.append(0.0, 2.0 ** (np.arange(-53 * 8, 1024 * 8) / 8))
MARCH_TO_EXIT = (MARCH / (1.0 + MARCH))[MARCH <= 2.0**54]  # every ratio past 2**54 rounds to 1: the exit
ANGLE_TOL = 1e-7           # width of the final bracket of Brent's minimiser, radians
GOLDEN = (3.0 - math.sqrt(5.0)) / 2.0  # the golden-section fraction of a bracket


def block_rng(seed: int, block_index: int) -> np.random.Generator:
    """Counter-based stream for one sample block."""
    key = np.array([seed, block_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class PredicateEvent:
    """Vectorized event on the scaled pair: ``contains`` sees arrays in a ray's march, floats in its bisection."""

    fn: Callable
    name: str

    def contains(self, z1, z2):
        return self.fn(z1, z2)

    def describe(self) -> str:
        return self.name


def parse_event(text: str) -> HalfPlane:
    """Parse events of the form ``z1>=1.5`` or ``z2<=0.2`` into their axis half-planes."""
    for op in (">=", "<="):
        if op in text:
            coord, _, value = text.partition(op)
            coord = coord.strip()
            if coord not in ("z1", "z2"):
                raise ValueError(f"unknown coordinate {coord!r} in event {text!r}")
            return MarginalThreshold(coord, op, float(value))
    raise ValueError(f"cannot parse event {text!r}; expected e.g. 'z1>=1.5'")


@dataclass
class SimulationConfig:
    """Inputs of one Monte Carlo run."""

    model: HoldingTimeModel
    x: float
    n_samples: int
    seed: int
    workers: int = 1

    def __post_init__(self):
        _check_level(self.x)
        if self.n_samples < 1:
            raise ValueError("sample count must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


@dataclass
class TailEstimate:
    """Aggregated Monte Carlo estimate of one rare-event probability."""

    event: str
    x: float
    n_samples: int
    hit_count: int
    p_hat: float
    ci_low: float
    ci_high: float
    empirical_rate: Optional[float]
    predicted_rate: float
    exact_probability: Optional[float] = None
    zero_hit_bound: Optional[float] = None


def _sample_chunked(model, x, rng, count):
    """(tau, area) arrays of `count` samples, drawn chunk by chunk in a fixed order."""
    weights = passage_weights(x)
    # a power of two, at least 8: OpenBLAS dgemv takes another kernel for the last rows mod 8
    # of a call, so chunk boundaries at multiples of 8 give the areas of one whole-block dgemv
    rows = 1 << max(3, (CHUNK_DRAWS // weights.size).bit_length() - 1)
    tau, area = np.empty(count), np.empty(count)
    for lo in range(0, count, rows):
        draws = model.sample(rng, size=(min(rows, count - lo), weights.size))
        tau[lo:lo + rows], area[lo:lo + rows] = draws.sum(axis=1), draws @ weights
    return tau, area


def default_workers() -> int:
    """RENEWAL_LDP_WORKERS if set, else the usable CPU count; results do not depend on it."""
    usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return int(os.environ.get("RENEWAL_LDP_WORKERS", usable))


def map_blocks(config: SimulationConfig, func: Callable) -> list:
    """``func(tau, area)`` of each sample block, once per block, in block order.

    Each block gets its own counter-based stream and ``func`` sees all of its
    samples at once, so the output is identical for any worker count and any
    CHUNK_DRAWS; workers only affect scheduling, the chunk size only memory.
    """
    n = config.n_samples

    def run_block(b):
        count = min(BLOCK_SIZE, n - b * BLOCK_SIZE)
        return func(*_sample_chunked(config.model, config.x, block_rng(config.seed, b), count))

    blocks = range((n + BLOCK_SIZE - 1) // BLOCK_SIZE)
    if config.workers == 1:
        return [run_block(b) for b in blocks]
    with ThreadPoolExecutor(max_workers=config.workers) as pool:
        return list(pool.map(run_block, blocks))


def wilson_interval(hits: int, n: int, level: float = 0.99) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    from scipy.special import ndtri  # imported on first use: scipy.special costs ~0.3 s of import
    z = float(ndtri(0.5 * (1.0 + level)))
    p = hits / n
    denom = 1.0 + z**2 / n
    center = (p + z**2 / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z**2 / (4 * n**2)) / denom
    return (max(center - half, 0.0), min(center + half, 1.0))


def ld_event_rate(model: HoldingTimeModel, event, x: float) -> float:
    """Predicted exponential decay rate: the infimum of the joint rate I over the event.

    I is convex and 0 at p = (mean, mean/2).  Half-planes, rectangles and
    unions are exact by :func:`moderate.region_min`, a half-plane with the
    :func:`rates.line_rate` of its edge.  A :class:`PredicateEvent` takes the
    least I where rays from p first enter it: N_RAYS rays march and bisect to
    them in the cone, and Brent's minimiser in the angle refines each local minimum.
    INF if no ray enters it, else I at a point of the event: exact
    when that rate is finite and unimodal in the angle between the
    neighbours of those rays, else an upper bound.
    """
    p = (model.mean, 0.5 * model.mean)
    return region_min(event, p, lambda z1, z2: rate_ld(model, z1, z2).value, partial(_row_argmin, model),
                      lambda normal, offset: line_rate(model, normal, offset).value,
                      partial(_ray_search_rate, model, p))


def _row_argmin(model: HoldingTimeModel, z2: float) -> float:
    """The z1 where I is least on the row of fixed z2: d1L(0, t) + (z2 - d2L(0, t)).

    t is the tilt of marginal_I2(z2), the dual of that row's least value.
    The slack z2 - d2L(0, t) is nonzero only when t sits on the closed
    inverse-Gaussian face a1 + a2 = boundary: there the row minimiser leaves
    the image of the gradient along the face normal (1, 1).  A row z2 <= 0
    has no tilt, and I is INF along it.
    """
    if z2 <= 0.0:
        return z2
    d1, d2 = lambda_grad(model, 0.0, marginal_I2(model, z2).argmax_tilt[1])
    return d1 + (z2 - d2)


def _ray_search_rate(model: HoldingTimeModel, p, event) -> float:
    """:func:`ld_event_rate` of a :class:`PredicateEvent` that misses p."""
    rate_at = partial(_first_hit_rate, model, event, p)
    # ray j is angles[j + 1]; ray 0 aims at the apex (0, 0), as events there subtend a small angle
    angles = math.atan2(-p[1], -p[0]) + 2.0 * math.pi / N_RAYS * np.arange(-1, N_RAYS + 1)
    rates = [rate_at(a) for a in angles[1:-1]]
    return min(rates + [_brent_min(rate_at, angles[j], angles[j + 2]) for j, rate in enumerate(rates)
                        if rate < INF and rate <= rates[j - 1] and rate <= rates[(j + 1) % N_RAYS]])


def _brent_min(f, lo: float, hi: float) -> float:
    """Least value of f seen by Brent's minimiser on [lo, hi], down to a bracket of ANGLE_TOL.

    Golden section plus parabolic steps through the three best points x, w, v
    (Brent 1973, Algorithms for Minimization without Derivatives, ch. 5); x
    holds the least value seen.  A ray that misses the event gives INF, and a
    parabola through INF a NaN step, so a parabolic step needs three finite values.
    """
    x = w = v = lo + GOLDEN * (hi - lo)
    fx = fw = fv = f(x)
    d = e = 0.0  # the last step and the one before it
    tol = 0.25 * ANGLE_TOL  # the least step
    while max(x - lo, hi - x) > 2.0 * tol:
        m, golden = 0.5 * (lo + hi), True
        if abs(e) > tol and fx < INF and fw < INF and fv < INF:
            r, q = (x - w) * (fx - fv), (x - v) * (fx - fw)
            p, q = (x - v) * q - (x - w) * r, 2.0 * (q - r)
            p, q = -p if q > 0.0 else p, abs(q)
            # the parabola's vertex, if inside and less than half the step before last
            if abs(p) < abs(0.5 * q * e) and q * (lo - x) < p < q * (hi - x):
                e, d, golden = d, p / q, False
                if x + d - lo < 2.0 * tol or hi - (x + d) < 2.0 * tol:
                    d = math.copysign(tol, m - x)
        if golden:
            e = (lo if x >= m else hi) - x
            d = GOLDEN * e
        fu = f(u := x + (d if abs(d) >= tol else math.copysign(tol, d)))
        if fu <= fx:
            lo, hi = (x, hi) if u >= x else (lo, x)
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            lo, hi = (u, hi) if u < x else (lo, u)
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    return fx


def _first_hit_rate(model, event, p, angle) -> float:
    """I where the ray p + r (cos a, sin a) first enters the event, bisected to one ulp of r; INF if it never does."""
    c, s = math.cos(angle), math.sin(angle)
    exit_r = min(-p[1] / s if s < 0.0 else INF, (p[0] - p[1]) / (s - c) if s > c else INF)
    radii = exit_r * MARCH_TO_EXIT if exit_r < INF else p[0] * MARCH[:np.searchsorted(MARCH, 2.0**1023 / p[0])]

    def inside(r):
        z1, z2 = p[0] + r * c, p[1] + r * s
        # the cone test drops a point that rounding puts past the exit
        return (0.0 <= z2) & (z2 <= z1) & event.contains(z1, z2)

    with np.errstate(over="ignore", invalid="ignore"):  # the march ends at the largest doubles
        hit = inside(radii)
        if not hit[k := int(hit.argmax())]:
            return INF
        lo, hi = float(radii[k - 1]), float(radii[k])  # the event holds at hi, not at lo
        while lo < (mid := lo + (hi - lo) / 2.0) < hi:  # lo + hi overflows at the end of the march
            lo, hi = (lo, mid) if inside(mid) else (mid, hi)
    return rate_ld(model, p[0] + hi * c, p[1] + hi * s).value


def _passage_gamma(model: HoldingTimeModel, event, x: float):
    """(op, a, y) when the event is the gamma tail tau(x) op y, else None.

    Exponential holding times and an axis half-plane in z1: tau(x) is
    Gamma(a = ceil(x), rate lam) at every x > 0.  The threshold is divided by
    the scale 1/lam, as SciPy's gamma distribution does.
    """
    coord, op, c = axis_threshold(event) or (None, None, None)
    if model.kind != "exponential" or coord != "z1":
        return None
    return op, n_terms_for(x), max(c * x / (1.0 / model.domain.boundary), 0.0)


def exact_tail_oracle(model: HoldingTimeModel, event, x: float) -> Optional[float]:
    """Closed-form event probability where one exists, equal to SciPy's gamma sf/cdf bit for bit."""
    if (law := _passage_gamma(model, event, x)) is None:
        return None
    from scipy.special import gammainc, gammaincc  # imported on first use: ~0.3 s of import
    op, a, y = law
    return float((gammaincc if op == ">=" else gammainc)(a, y))


def log_exact_tail_oracle(model: HoldingTimeModel, event, x: float) -> Optional[float]:
    """Log of :func:`exact_tail_oracle`, computed in logs so that no tail underflows.

    E.g. z1 >= 3 for exponential:1 at x = 1000 has the log-probability
    -906.4545..., where the tail itself is below the doubles.
    """
    if (law := _passage_gamma(model, event, x)) is None:
        return None
    op, a, y = law
    log_p, log_q = _log_gamma_tails(a, y)
    return log_q if op == ">=" else log_p


def _log_gamma_tails(a: int, y: float) -> tuple[float, float]:
    """(log P(a, y), log Q(a, y)), the logs of the regularized incomplete gamma tails.

    a log y - y - lgamma(a) plus the log of the series of P for y <= a + 1,
    else of the Legendre continued fraction of Q, by modified Lentz
    (Numerical Recipes 6.2); the other tail is log1p of minus the first.  The
    three leading terms cancel near y = a, so the absolute error of the log
    is about eps a log y: 7e-12 relative at a = 10^4.
    """
    if y == 0.0:
        return -INF, -0.0
    if y == INF:
        return -0.0, -INF
    eps, tiny = sys.float_info.epsilon, sys.float_info.min
    prefix = a * math.log(y) - y - math.lgamma(a)
    if y <= a + 1.0:
        n, term, total = a, 1.0 / a, 1.0 / a
        while term > total * eps:
            n += 1
            term *= y / n
            total += term
        log_p = prefix + math.log(total)
        return log_p, math.log1p(-math.exp(log_p))
    b = y + 1.0 - a
    c, d = 1.0 / tiny, 1.0 / b
    h, i, delta = d, 0, 0.0
    while abs(delta - 1.0) > eps:
        i += 1
        an, b = -i * (i - a), b + 2.0
        d = an * d + b
        c = b + an / c
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = c if abs(c) > tiny else tiny
        delta = d * c
        h *= delta
    log_q = prefix + math.log(h)
    return math.log1p(-math.exp(log_q)), log_q


def estimate_tail(config: SimulationConfig, event) -> TailEstimate:
    """Plain Monte Carlo probability of an event on the scaled pair."""
    x = config.x
    x2 = x * x

    def count_hits(tau, area):
        return int(np.count_nonzero(event.contains(tau / x, area / x2)))

    hits = sum(map_blocks(config, count_hits))
    n = config.n_samples
    p_hat = hits / n
    ci_low, ci_high = wilson_interval(hits, n)
    zero_bound = None
    if hits > 0:
        empirical_rate = -math.log(p_hat) / x
    else:
        empirical_rate = None
        zero_bound = -math.log(3.0 / n) / x  # rule-of-three lower bound on the rate
    return TailEstimate(
        event=event.describe() if hasattr(event, "describe") else repr(event),
        x=x,
        n_samples=n,
        hit_count=hits,
        p_hat=p_hat,
        ci_low=ci_low,
        ci_high=ci_high,
        empirical_rate=empirical_rate,
        predicted_rate=ld_event_rate(config.model, event, x),
        exact_probability=exact_tail_oracle(config.model, event, x),
        zero_hit_bound=zero_bound,
    )


def empirical_moments(model: HoldingTimeModel, x: float, n_samples: int, seed: int, workers: int = 1) -> dict:
    """Raw empirical moments of (tau, area) for comparison with the exact formulas.

    The variances and the covariance carry the Bessel factor n/(n - 1), so at least two
    samples are needed.
    """
    if n_samples < 2:
        raise ValueError("empirical moments need n_samples >= 2")
    config = SimulationConfig(model=model, x=x, n_samples=n_samples, seed=seed, workers=workers)

    def block_stats(tau, area):
        return (tau.sum(), area.sum(), (tau * tau).sum(), (tau * area).sum(), (area * area).sum())

    parts = map_blocks(config, block_stats)
    st, sa, stt, sta, saa = (math.fsum(p[i] for p in parts) for i in range(5))
    n = n_samples
    mt, ma = st / n, sa / n
    bessel = n / (n - 1)
    return {
        "n_samples": n,
        "mean_tau": mt,
        "mean_area": ma,
        "var_tau": (stt / n - mt**2) * bessel,
        "var_area": (saa / n - ma**2) * bessel,
        "cov": (sta / n - mt * ma) * bessel,
    }


def empirical_clt(model: HoldingTimeModel, x: float, n_samples: int, seed: int, workers: int = 1) -> dict:
    """Mean and covariance of sqrt(x) * (tau/x - phi'(0), A/x^2 - phi'(0)/2).

    A rescaling of :func:`empirical_moments`: the covariance of the scaled
    pair is [[Var tau/x, Cov/x^2], [Cov/x^2, Var A/x^3]].
    """
    m = empirical_moments(model, x, n_samples, seed, workers)
    phi1, x2 = model.mean, x * x
    mean = math.sqrt(x) * np.array([m["mean_tau"] / x - phi1, m["mean_area"] / x2 - 0.5 * phi1])
    c12 = m["cov"] / x2
    cov = np.array([[m["var_tau"] / x, c12], [c12, m["var_area"] / (x2 * x)]])
    corr = c12 / math.sqrt(cov[0, 0] * cov[1, 1])
    return {"mean": mean, "cov": cov, "correlation": corr, "n_samples": m["n_samples"]}


def _area_face_chernoff(model: HoldingTimeModel, x: float, threshold: float, upper: bool) -> float:
    """Chernoff bound on log P(A(x)/x^2 >= threshold) (or <= for upper=False).

    K(b) = sum_k phi(b w_k) over the passage weights is the exact log-MGF of A(x), so
    inf [K(b) - b threshold x^2] over b >= 0 (b <= 0 for the lower face) is a rigorous bound: one
    :func:`models.dual_newton` in t = b x from the moderate-deviation tilt, with u = w/x and
    K'' = sum u_k^2 phi''(t u_k).  The tilts t u_k are at most t, so the upper face stays in D(phi).
    Gamma family only (the oracle's exponential); ValueError for another kind.
    """
    if model.kind not in ("exponential", "gamma"):
        raise ValueError(f"the area-face Chernoff bound is written for the gamma family, not {model.kind!r}")
    u = passage_weights(x) / x
    level = threshold * x  # threshold x^2 per unit of t
    if level <= 0.0:
        return 0.0 if upper else -INF  # A(x) > 0
    top = model.domain.search_top(finite_at_face=False) if upper else 0.0
    start = min((level - model.mean * float(u.sum())) / (model.variance * float(u @ u)), 0.5 * top)
    shape = model.params.get("shape", 1.0)

    def terms(t):
        # every t u_k is at most t <= top, inside the domain, where phi = -shape log1p(-t u_k/rate) is taken
        # on the whole array; K is summed exactly
        tu = t * u
        return (-shape * math.fsum(np.log1p(tu / -model.domain.boundary).tolist()),
                float(u @ model.cgf_d1(tu)), math.sqrt(float((u * u) @ model.cgf_d2(tu))))

    t, g, _ = dual_newton(terms, level, start, top)
    return 0.0 if upper and t < 0.0 else -g  # a threshold below the mean: the bound is 0 at b = 0


def empirical_md(
    model: HoldingTimeModel,
    x_grid: Sequence[float],
    p_exponent: float,
    delta: float,
    n_samples: int,
    seed: int,
    workers: int = 1,
) -> list[dict]:
    """Moderate-deviation exceedance table: a_x * log P(||scaled||_inf >= delta).

    Plain Monte Carlo is attached for every x; when the probability is below
    Monte Carlo reach the rule-of-three bound is reported.  For exponential
    holding times an oracle column is added: an upper bound made of the exact
    gamma tails of the passage-time faces plus a Chernoff bound on each area
    face.
    """
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    scaling = ModerateScaling(p=p_exponent)
    region = sup_norm_exceedance(delta)
    predicted = md_event_rate(model, region)
    phi1 = model.mean
    rows = []
    for x in x_grid:
        config = SimulationConfig(model=model, x=x, n_samples=n_samples, seed=seed, workers=workers)
        a_x = scaling.a(x)
        scale = math.sqrt(x * a_x)
        x2 = x * x

        def count_hits(tau, area):
            return int(np.count_nonzero(region.contains(scale * (tau / x - phi1),
                                                        scale * (area / x2 - 0.5 * phi1))))

        hits = sum(map_blocks(config, count_hits))
        mc_value = a_x * math.log((hits or 3.0) / n_samples)  # no hits: the rule-of-three bound
        row = {
            "x": x,
            "a_x": a_x,
            "hits": hits,
            "n_samples": n_samples,
            "mc_exponent": mc_value,
            "predicted_exponent": -predicted,
        }
        oracle = _md_oracle_log_prob(model, x, scale, delta)
        if oracle is not None:
            row["oracle_exponent"] = a_x * oracle
        rows.append(row)
    return rows


def _md_oracle_log_prob(model: HoldingTimeModel, x: float, scale: float, delta: float):
    """Upper bound on the log-probability of the sup-norm event; exponential holding times only.

    The event is the union of two passage-time faces and two area faces.  The
    passage-time faces are exact gamma tails, each area face is bounded by
    Chernoff, and the union is bounded by the sum of the four, so the result
    is an upper bound: exact up to the area faces, which are always added.
    """
    if delta <= 0.0:
        return None
    phi1 = model.mean
    thr = delta / scale
    log_up = log_exact_tail_oracle(model, MarginalThreshold("z1", ">=", phi1 + thr), x)
    if log_up is None:
        return None
    log_lo = log_exact_tail_oracle(model, MarginalThreshold("z1", "<=", phi1 - thr), x)
    log_area = np.logaddexp(
        _area_face_chernoff(model, x, 0.5 * phi1 + thr, upper=True),
        _area_face_chernoff(model, x, 0.5 * phi1 - thr, upper=False),
    )
    return float(np.logaddexp(np.logaddexp(log_up, log_lo), log_area))

