"""Exact Monte Carlo for the passage pair and its rare-event diagnostics.

Sampling uses the weighted holding-time representation: the passage time is a
sum of ceil(x) holding times and the area is the same draws weighted by
x, x-1, ...  Randomness comes from counter-based Philox streams keyed by
(master seed, block index) over fixed-size sample blocks, so the j-th sample
is identical no matter how blocks are distributed over workers, and merged
statistics are reproducible bit for bit.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from scipy import stats as sps
from scipy.optimize import minimize_scalar

from .lambda_surface import in_finite_x_domain
from .models import INF, HoldingTimeModel, phi_star
from .moderate import (
    ModerateScaling,
    md_event_rate,
    passage_weights,
    sup_norm_exceedance,
)
from .rates import marginal_I2, rate_ld

BLOCK_SIZE = 4096          # samples per random stream; independent of worker count
CHUNK_DRAWS = 1 << 23      # max holding-time draws materialized at once


def block_rng(seed: int, block_index: int) -> np.random.Generator:
    """Counter-based stream for one sample block."""
    key = np.array([seed, block_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class PassageSample:
    """One exact draw of the passage pair at initial level x."""

    x: float
    tau: float
    area: float
    n_terms: int


@dataclass(frozen=True)
class MarginalThreshold:
    """Event {z >= c} or {z <= c} on one scaled coordinate."""

    coord: str   # "z1" or "z2"
    op: str      # ">=" or "<="
    c: float

    def contains(self, z1, z2):
        v = z1 if self.coord == "z1" else z2
        return v >= self.c if self.op == ">=" else v <= self.c

    def describe(self) -> str:
        return f"{self.coord}{self.op}{self.c:g}"


@dataclass(frozen=True)
class PredicateEvent:
    """Arbitrary vectorized event on the scaled pair, e.g. the cone complement."""

    fn: Callable
    name: str

    def contains(self, z1, z2):
        return self.fn(z1, z2)

    def describe(self) -> str:
        return self.name


def parse_event(text: str) -> MarginalThreshold:
    """Parse events of the form ``z1>=1.5`` or ``z2<=0.2``."""
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
        if self.n_samples < 1:
            raise ValueError("sample count must be >= 1")


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


def n_terms_for(x: float) -> int:
    return int(x) if float(x).is_integer() else math.floor(x) + 1


def sample_passage(model: HoldingTimeModel, x: float, rng: np.random.Generator) -> PassageSample:
    """One exact draw of (tau(x), A(x)) from a caller-provided stream."""
    if x <= 0:
        raise ValueError("x must be positive")
    weights = passage_weights(x)
    draws = model.sample(rng, size=weights.size)
    return PassageSample(
        x=x,
        tau=float(draws.sum()),
        area=float(draws @ weights),
        n_terms=weights.size,
    )


def _sample_chunked(model, x, rng, count):
    """Yield (tau, area) arrays for `count` samples, drawn in a fixed order."""
    weights = passage_weights(x)
    n_terms = weights.size
    rows = max(1, CHUNK_DRAWS // n_terms)
    done = 0
    while done < count:
        take = min(rows, count - done)
        draws = model.sample(rng, size=(take, n_terms))
        yield draws.sum(axis=1), draws @ weights
        done += take


def map_blocks(config: SimulationConfig, func: Callable) -> list:
    """Apply ``func(tau, area)`` over all sample blocks; results in block order.

    Each block gets its own counter-based stream, so the output is identical
    for any worker count; workers only affect scheduling.
    """
    n = config.n_samples
    n_blocks = (n + BLOCK_SIZE - 1) // BLOCK_SIZE

    def run_block(b):
        rng = block_rng(config.seed, b)
        count = min(BLOCK_SIZE, n - b * BLOCK_SIZE)
        parts = [func(tau, area) for tau, area in _sample_chunked(config.model, config.x, rng, count)]
        return parts

    if config.workers <= 1:
        per_block = [run_block(b) for b in range(n_blocks)]
    else:
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            per_block = list(pool.map(run_block, range(n_blocks)))
    return [part for block in per_block for part in block]


def wilson_interval(hits: int, n: int, level: float = 0.99) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    z = float(sps.norm.ppf(0.5 * (1.0 + level)))
    p = hits / n
    denom = 1.0 + z**2 / n
    center = (p + z**2 / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z**2 / (4 * n**2)) / denom
    return (max(center - half, 0.0), min(center + half, 1.0))


def ld_event_rate(model: HoldingTimeModel, event, x: float) -> float:
    """Predicted exponential decay rate: inf of the joint rate over the event."""
    if isinstance(event, MarginalThreshold):
        mean = model.mean
        if event.coord == "z1":
            target = event.c
            if (event.op == ">=" and target <= mean) or (event.op == "<=" and target >= mean):
                return 0.0
            return phi_star(model, target).value
        target = event.c
        if (event.op == ">=" and target <= 0.5 * mean) or (event.op == "<=" and target >= 0.5 * mean):
            return 0.0
        return marginal_I2(model, target).value
    # generic region: coarse grid minimum of the joint rate over the cone
    mean = model.mean
    zs = np.linspace(1e-3, 6.0 * mean, 40)
    best = INF
    for z1 in zs:
        for z2 in zs:
            if 0 <= z2 <= z1 and event.contains(z1, z2):
                best = min(best, rate_ld(model, float(z1), float(z2)).value)
    return best


def exact_tail_oracle(model: HoldingTimeModel, event, x: float) -> Optional[float]:
    """Closed-form event probability where one exists.

    Exponential holding times with an integer x and a passage-time threshold:
    tau(x) is Gamma(x, rate lam), so the event is a regularized incomplete
    gamma tail.
    """
    if model.kind != "exponential" or not float(x).is_integer():
        return None
    if not isinstance(event, MarginalThreshold) or event.coord != "z1":
        return None
    lam = model.domain.boundary
    n = int(x)
    if event.op == ">=":
        return float(sps.gamma.sf(event.c * x, a=n, scale=1.0 / lam))
    return float(sps.gamma.cdf(event.c * x, a=n, scale=1.0 / lam))


def log_exact_tail_oracle(model: HoldingTimeModel, event, x: float) -> Optional[float]:
    """Log of :func:`exact_tail_oracle`, stable for deep tails."""
    if exact_tail_oracle(model, event, x) is None:
        return None
    lam = model.domain.boundary
    n = int(x)
    if event.op == ">=":
        return float(sps.gamma.logsf(event.c * x, a=n, scale=1.0 / lam))
    return float(sps.gamma.logcdf(event.c * x, a=n, scale=1.0 / lam))


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


def empirical_clt(model: HoldingTimeModel, x: float, n_samples: int, seed: int, workers: int = 1) -> dict:
    """Mean and covariance of sqrt(x) * (tau/x - phi'(0), A/x^2 - phi'(0)/2)."""
    config = SimulationConfig(model=model, x=x, n_samples=n_samples, seed=seed, workers=workers)
    phi1 = model.mean
    sx = math.sqrt(x)
    x2 = x * x

    def block_stats(tau, area):
        v1 = sx * (tau / x - phi1)
        v2 = sx * (area / x2 - 0.5 * phi1)
        return (v1.sum(), v2.sum(), (v1 * v1).sum(), (v1 * v2).sum(), (v2 * v2).sum(), v1.size)

    parts = map_blocks(config, block_stats)
    s1, s2, s11, s12, s22, n = (math.fsum(p[i] for p in parts) for i in range(6))
    n = int(n)
    mean = np.array([s1 / n, s2 / n])
    cov = np.array([
        [s11 / n - mean[0] ** 2, s12 / n - mean[0] * mean[1]],
        [s12 / n - mean[0] * mean[1], s22 / n - mean[1] ** 2],
    ]) * (n / (n - 1))
    corr = cov[0, 1] / math.sqrt(cov[0, 0] * cov[1, 1])
    return {"mean": mean, "cov": cov, "correlation": corr, "n_samples": n}


def empirical_moments(model: HoldingTimeModel, x: float, n_samples: int, seed: int, workers: int = 1) -> dict:
    """Raw empirical moments of (tau, area) for comparison with the exact formulas."""
    config = SimulationConfig(model=model, x=x, n_samples=n_samples, seed=seed, workers=workers)

    def block_stats(tau, area):
        return (tau.sum(), area.sum(), (tau * tau).sum(), (tau * area).sum(),
                (area * area).sum(), tau.size)

    parts = map_blocks(config, block_stats)
    st, sa, stt, sta, saa, n = (math.fsum(p[i] for p in parts) for i in range(6))
    n = int(n)
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


def _area_face_chernoff(model: HoldingTimeModel, x: float, threshold: float, upper: bool) -> float:
    """Chernoff bound on log P(A(x)/x^2 >= threshold) (or <= for upper=False).

    Uses log E[exp(b*A)] = sum_k phi(b*w_k) over the passage weights; exact
    for every finite x, so the bound is rigorous.
    """
    weights = passage_weights(x)
    abar = model.domain.boundary

    def neg_exponent(b):
        if upper:
            b = abs(b)
        else:
            b = -abs(b)
        top = b * weights.max() if b > 0 else b * weights.min()
        if not model.domain.contains(top) or top >= abar:
            return INF
        return math.fsum(model.phi(b * w) for w in weights) - b * threshold * x * x

    res = minimize_scalar(lambda t: neg_exponent(t), bounds=(1e-12, abar / max(x, 1.0)),
                          method="bounded")
    return float(res.fun)


def empirical_md(
    model: HoldingTimeModel,
    x_grid: Sequence[float],
    p_exponent: float,
    delta: float,
    n_samples: int,
    seed: int,
    workers: int = 1,
) -> list[dict]:
    """Moderate-deviation exceedance table: a_x * log P(||scaled||_inf > delta).

    Plain Monte Carlo is attached for every x; when the probability is below
    Monte Carlo reach the rule-of-three bound is reported.  For exponential
    holding times an exact-oracle column is added: the dominant passage-time
    faces are regularized gamma tails and the area faces are verified to be
    negligible by a Chernoff bound.
    """
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    scaling = ModerateScaling(p=p_exponent)
    region = sup_norm_exceedance(delta)
    predicted = md_event_rate(model, region)
    phi1 = model.mean
    rows = []
    for x in x_grid:
        a_x = scaling.a(x)
        scale = math.sqrt(x * a_x)
        x2 = x * x
        config = SimulationConfig(model=model, x=x, n_samples=n_samples, seed=seed, workers=workers)

        def count_hits(tau, area):
            u1 = scale * (tau / x - phi1)
            u2 = scale * (area / x2 - 0.5 * phi1)
            return int(np.count_nonzero(np.maximum(np.abs(u1), np.abs(u2)) > delta))

        hits = sum(map_blocks(config, count_hits))
        if delta == 0.0:
            mc_value = 0.0
        elif hits > 0:
            mc_value = a_x * math.log(hits / n_samples)
        else:
            mc_value = a_x * math.log(3.0 / n_samples)  # rule-of-three bound
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
    """Exact log-probability of the sup-norm event, exponential integer-x only.

    The union is split into passage-time faces (exact gamma tails) and area
    faces; the latter are bounded by Chernoff and folded in only if they are
    not negligible at the double-precision level.
    """
    if model.kind != "exponential" or not float(x).is_integer() or delta <= 0.0:
        return None
    lam = model.domain.boundary
    phi1 = 1.0 / lam
    n = int(x)
    thr = delta / scale
    log_up = sps.gamma.logsf((phi1 + thr) * x, a=n, scale=1.0 / lam)
    lower = (phi1 - thr) * x
    log_lo = sps.gamma.logcdf(lower, a=n, scale=1.0 / lam) if lower > 0 else -INF
    log_tau = np.logaddexp(log_up, log_lo)
    # area faces: rigorous Chernoff upper bounds
    log_area = np.logaddexp(
        _area_face_chernoff(model, x, 0.5 * phi1 + thr, upper=True),
        _area_face_chernoff(model, x, 0.5 * phi1 - thr, upper=False),
    )
    return float(np.logaddexp(log_tau, log_area))


def mgf_empirical_check(
    model: HoldingTimeModel,
    x: float,
    a1: float,
    a2: float,
    n_samples: int,
    seed: int,
    workers: int = 1,
) -> dict:
    """Relative error of the empirical joint MGF against the product formula."""
    if not in_finite_x_domain(model, x, a1, a2):
        raise ValueError(f"tilt ({a1}, {a2}) outside the finite-x MGF domain")
    weights = passage_weights(x)
    exact = math.exp(math.fsum(model.phi(a1 + a2 * w) for w in weights))
    config = SimulationConfig(model=model, x=x, n_samples=n_samples, seed=seed, workers=workers)

    def block_sum(tau, area):
        return (np.exp(a1 * tau + a2 * area).sum(), tau.size)

    parts = map_blocks(config, block_sum)
    total = math.fsum(p[0] for p in parts)
    n = int(math.fsum(p[1] for p in parts))
    empirical = total / n
    return {
        "empirical": empirical,
        "exact": exact,
        "relative_error": abs(empirical - exact) / exact,
        "n_samples": n,
    }
