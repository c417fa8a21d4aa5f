"""End-to-end validation suite: oracle equalities plus toleranced Monte Carlo.

Each criterion returns a CriterionResult; the CLI ``validate`` subcommand and
the test suite both run these.  Tolerances are fixed here, not tuned at run
time.  Statistical checks use fixed seeds so the suite is deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import conditional as cond
from . import lambda_surface as surf
from . import moderate as mod
from . import simulate as sim
from .models import BUILTIN_MODELS, builtin_models, make_model, model_of, phi_star
from .rates import conditional_rate_J, rate_ld, rate_ld_poisson


@dataclass
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str


def _symmetric_rel_dev(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b))


def criterion_1_hessian_identity() -> CriterionResult:
    """Origin Hessian matches finite differences; C * C_inv = identity."""
    worst_fd = 0.0
    worst_id = 0.0

    def fd_hessian(f, h):
        fd11 = (f(h, 0) - 2 * f(0, 0) + f(-h, 0)) / h**2
        fd22 = (f(0, h) - 2 * f(0, 0) + f(0, -h)) / h**2
        fd12 = (f(h, h) - f(h, -h) - f(-h, h) + f(-h, -h)) / (4 * h**2)
        return np.array([[fd11, fd12], [fd12, fd22]])

    for model in builtin_models():
        cs = surf.hessian_origin(model)
        f = lambda a1, a2: surf.lambda_eval(model, a1, a2)
        # two Richardson levels: O(h^6) truncation, large h keeps roundoff down
        h = 0.02
        r1 = lambda hh: (4.0 * fd_hessian(f, 0.5 * hh) - fd_hessian(f, hh)) / 3.0
        fd = (16.0 * r1(0.5 * h) - r1(h)) / 15.0
        worst_fd = max(worst_fd, float(np.max(np.abs(fd - cs.C))))
        worst_id = max(worst_id, float(np.max(np.abs(cs.C @ cs.C_inv - np.eye(2)))))
    passed = worst_fd <= 1e-6 and worst_id <= 1e-12
    return CriterionResult(1, "hessian identity", passed,
                           f"max FD dev {worst_fd:.2e} (tol 1e-6), max C*Cinv dev {worst_id:.2e} (tol 1e-12)")


def criterion_2_poisson_closed_form() -> CriterionResult:
    """Quadrature evaluation equals the exponential closed form on interior grids."""
    worst = 0.0
    checked = 0
    for lam in (0.5, 1.0, 2.0):
        model = model_of("exponential", lam)
        a1_grid = np.linspace(-1.5 * lam, 0.6 * lam, 20)
        a2_grid = np.linspace(-1.0 * lam, 0.3 * lam, 20)
        for a1 in a1_grid:
            for a2 in a2_grid:
                if abs(a2) < 1e-3 * lam or max(a1 + a2, a1) > 0.9 * lam:
                    continue
                quad = surf.lambda_eval(model, float(a1), float(a2), method="quadrature")
                closed = surf.poisson_lambda_closed_form(lam, float(a1), float(a2))
                worst = max(worst, abs(quad - closed))
                checked += 1
    passed = worst <= 1e-9 and checked > 250
    return CriterionResult(2, "poisson closed form", passed,
                           f"max |quad-closed| {worst:.2e} over {checked} grid points (tol 1e-9)")


def criterion_3_rate_zero_and_cone() -> CriterionResult:
    """Rate vanishes at the law-of-large-numbers point and is infinite off the cone."""
    ok = True
    details = []
    for model in builtin_models():
        mean = model.mean
        at_zero = rate_ld(model, mean, 0.5 * mean)
        off_cone = [rate_ld(model, 1.0, 2.0).value,
                    rate_ld(model, 0.5, 1.0).value,
                    rate_ld(model, 1.0, -0.1).value]
        good = at_zero.value <= 1e-10 and all(v == math.inf for v in off_cone)
        ok = ok and good
        details.append(f"{model.kind}: zero={at_zero.value:.1e}")
    return CriterionResult(3, "rate zero and cone", ok, "; ".join(details))


def criterion_4_poisson_solver_equivalence() -> CriterionResult:
    """Generic Newton and the g-root path agree on the cone interior, lam=1."""
    model = model_of("exponential", 1.0)
    worst = 0.0
    for z1 in np.linspace(0.3, 3.0, 15):
        for t in np.linspace(0.08, 0.92, 15):
            z2 = float(z1 * t)
            generic = rate_ld(model, float(z1), z2).value
            special = rate_ld_poisson(1.0, float(z1), z2).value
            worst = max(worst, abs(generic - special))
    passed = worst <= 1e-6
    return CriterionResult(4, "poisson solver equivalence", passed,
                           f"max |newton - g_root| {worst:.2e} on 15x15 grid (tol 1e-6)")


def criterion_5_variational_equality() -> CriterionResult:
    """kappa* equals the joint-minus-marginal conditional rate across lambdas."""
    worst = 0.0
    for lam in (0.5, 1.0, 3.0):
        model = model_of("exponential", lam)
        for z1 in np.linspace(0.4, 2.2, 7):
            for t in np.linspace(0.1, 0.9, 7):
                z2 = float(z1 * t)
                ks = cond.kappa_star(z2, float(z1)).value
                j = conditional_rate_J(model, float(z1), z2)
                worst = max(worst, abs(ks - j))
    passed = worst <= 1e-6
    return CriterionResult(5, "variational equality", passed,
                           f"max |kappa* - J| {worst:.2e} on 7x7 grids, lam in {{0.5,1,3}} (tol 1e-6)")


def criterion_6_appendix_formula() -> CriterionResult:
    """Closed-form simplex integral against brute-force nested quadrature."""
    worst = 0.0
    for x in (2, 3, 4, 5):
        for y in (0.5, 1.0, 2.0):
            for beta in (-2.0, -0.5, 0.5, 2.0):
                closed = cond.nested_integral(x, y, beta, mode="closed_form")
                brute = cond.nested_integral(x, y, beta, mode="brute_force")
                worst = max(worst, abs(closed - brute) / max(abs(closed), 1e-300))
    x2_exact = all(
        cond.nested_integral(2, y, b, mode="closed_form") == -math.expm1(-b * y) / b
        for y in (0.5, 1.0, 2.0) for b in (-2.0, 0.5)
    )
    passed = worst <= 1e-8 and x2_exact
    return CriterionResult(6, "appendix formula", passed,
                           f"max rel dev {worst:.2e} (tol 1e-8), x=2 closed form exact: {x2_exact}")


def criterion_7_conditional_mgf(quick: bool = False) -> CriterionResult:
    """Conditional MGF vs the simplex integral and the order-statistics sampler."""
    worst_tri = 0.0
    for x in (2, 3, 4, 5):
        for y in (0.5, 1.0, 2.0):
            for beta in (-1.0, 0.5, 1.0):
                lhs = cond.conditional_mgf(x, y, beta)
                rhs = (math.factorial(x - 1) * math.exp(beta * x * y) / y ** (x - 1)
                       * cond.nested_integral(x, y, beta, mode="closed_form"))
                worst_tri = max(worst_tri, abs(lhs - rhs) / rhs)
    n = 10**5 if quick else 10**6
    worst_mc = 0.0
    triples = [(2, 1.0, 0.5), (3, 2.0, 0.3), (4, 1.0, 0.3), (5, 0.5, 1.0), (3, 1.0, -1.0)]
    for i, (x, y, beta) in enumerate(triples):
        rng = sim.block_rng(2024, i)
        draws = cond.sample_area_given_tau(x, y, rng, size=n)
        emp = float(np.exp(beta * draws).mean())
        worst_mc = max(worst_mc, abs(emp - cond.conditional_mgf(x, y, beta)) / cond.conditional_mgf(x, y, beta))
    passed = worst_tri <= 1e-8 and worst_mc <= 0.01
    return CriterionResult(7, "conditional MGF triangulation", passed,
                           f"triangulation rel dev {worst_tri:.2e} (tol 1e-8), sampler MGF dev {worst_mc:.2%} (tol 1%)")


def criterion_8_tail_ldp_slope(quick: bool = False) -> CriterionResult:
    """Gamma-tail oracle slope for the passage-time event, plus a Monte Carlo check."""
    model = model_of("exponential", 1.0)
    event = sim.MarginalThreshold("z1", ">=", 1.5)
    target = phi_star(model, 1.5).value
    slopes = {}
    for x in (50, 100, 200, 400):
        slopes[x] = -sim.log_exact_tail_oracle(model, event, x) / x
    monotone = all(slopes[a] > slopes[b] for a, b in ((50, 100), (100, 200), (200, 400)))
    dev100 = _symmetric_rel_dev(slopes[100], target)
    dev400 = _symmetric_rel_dev(slopes[400], target)
    n = 10**5 if quick else 10**6
    est = sim.estimate_tail(sim.SimulationConfig(model=model, x=50, n_samples=n, seed=7), event)
    mc_ok = est.ci_low <= est.exact_probability <= est.ci_high
    passed = monotone and dev100 <= 0.25 and dev400 <= 0.12 and mc_ok
    return CriterionResult(
        8, "exact-tail LDP slope", passed,
        f"slopes {['%.4f' % slopes[x] for x in (50, 100, 200, 400)]} -> {target:.5f}, "
        f"dev@100 {dev100:.1%} (tol 25%), dev@400 {dev400:.1%} (tol 12%), "
        f"MC p_hat {est.p_hat:.3e} vs exact {est.exact_probability:.3e} in 99% band: {mc_ok}")


def criterion_9_clt_covariance(quick: bool = False) -> CriterionResult:
    """Empirical covariance of the sqrt(x)-scaled pair against the origin Hessian."""
    x = 10**3 if quick else 10**4
    n = 2 * 10**4 if quick else 10**5
    ok = True
    details = []
    for model in (model_of("exponential", 1.0), model_of("gamma", 2.0, 2.0)):
        out = sim.empirical_clt(model, x, n, seed=11)
        C = surf.hessian_origin(model).C
        rel = float(np.max(np.abs(out["cov"] - C) / np.abs(C)))
        corr_dev = abs(out["correlation"] - mod.CORRELATION_LIMIT) / mod.CORRELATION_LIMIT
        good = rel <= 0.05 and corr_dev <= 0.02
        ok = ok and good
        details.append(f"{model.kind}: cov rel dev {rel:.2%}, corr dev {corr_dev:.2%}")
    return CriterionResult(9, "CLT covariance", ok, "; ".join(details) + " (tol 5% / 2%)")


def _batched_moments(model, x, n, seed):
    """Per-block moment estimates for batch-means standard errors."""
    config = sim.SimulationConfig(model=model, x=x, n_samples=n, seed=seed)

    def stats_fn(tau, area):
        return (tau.mean(), area.mean(), tau.var(ddof=1), area.var(ddof=1),
                float(np.cov(tau, area, ddof=1)[0, 1]))

    parts = sim.map_blocks(config, stats_fn)
    arr = np.array(parts)
    return arr.mean(axis=0), arr.std(axis=0, ddof=1) / math.sqrt(arr.shape[0])


def criterion_10_exact_moments(quick: bool = False) -> CriterionResult:
    """Exact moment formulas against simulation and the direct weighted sums."""
    n = 10**5 if quick else 10**6
    ok = True
    worst_sigma = 0.0
    for model in builtin_models():
        for x in (10, 10.5, 100):
            exact = mod.exact_moments(model, x)
            est, se = _batched_moments(model, x, n, seed=23)
            targets = np.array([exact.mean_tau, exact.mean_area, exact.var_tau,
                                exact.var_area, exact.cov])
            sigmas = np.abs(est - targets) / se
            worst_sigma = max(worst_sigma, float(sigmas.max()))
            ok = ok and bool((sigmas <= 4.0).all())
    # non-integer variance formula vs direct weighted sum
    worst_formula = 0.0
    for model in builtin_models():
        x = 10.5
        w = mod.passage_weights(x)
        direct = model.variance * float((w**2).sum())
        formula = mod.exact_moments(model, x).var_area
        worst_formula = max(worst_formula, abs(direct - formula) / direct)
    passed = ok and worst_formula <= 1e-12
    return CriterionResult(10, "exact moments", passed,
                           f"worst |emp-exact| {worst_sigma:.2f} SE (tol 4), "
                           f"noninteger Var[A] formula rel dev {worst_formula:.2e} (tol 1e-12)")


def criterion_11_moderate_trend(quick: bool = False) -> CriterionResult:
    """Moderate-deviation exceedance exponents approach the quadratic-rate infimum.

    The x=1e4 event probability (~e^-49) is far below plain-Monte-Carlo
    reach, so the trend and the 35% closeness are evaluated on the exact
    gamma-tail oracle for the same event; Monte Carlo cross-checks the
    oracle at x=100 where hits are observable.
    """
    model = model_of("exponential", 1.0)
    n = 5000 if quick else 20000
    rows = sim.empirical_md(model, [100, 1000, 10000], p_exponent=0.5, delta=1.0,
                            n_samples=n, seed=5)
    predicted = rows[0]["predicted_exponent"]
    gaps = [abs(r["oracle_exponent"] - predicted) for r in rows]
    monotone = gaps[0] > gaps[1] > gaps[2]
    close = abs(rows[-1]["oracle_exponent"] - predicted) / abs(predicted) <= 0.35
    mc_row = rows[0]
    mc_cross = (mc_row["hits"] > 0
                and abs(mc_row["mc_exponent"] - mc_row["oracle_exponent"]) <= 0.15)
    passed = monotone and close and mc_cross
    return CriterionResult(
        11, "moderate-deviation trend", passed,
        f"oracle exponents {['%.4f' % r['oracle_exponent'] for r in rows]} -> {predicted:.3f}, "
        f"gaps {['%.3f' % g for g in gaps]} monotone: {monotone}; "
        f"MC@100 {mc_row['mc_exponent']:.3f} ({mc_row['hits']} hits) vs oracle "
        f"{mc_row['oracle_exponent']:.3f}")


def criterion_12_regularity_taxonomy() -> CriterionResult:
    """Lower semicontinuity and steepness per model kind."""
    expected = {
        "inverse_gaussian": (True, False),
        "exponential": (False, True),
        "noncentral_chi_squared": (True, True),
    }
    results = {}
    for kind in ("inverse_gaussian", "exponential", "noncentral_chi_squared"):
        rep = surf.regularity_report(make_model(kind, BUILTIN_MODELS[kind]))
        results[kind] = (rep.lsc, rep.steep)
    passed = results == expected
    return CriterionResult(12, "regularity taxonomy", passed, f"{results}")


def run_all(quick: bool = False) -> list[CriterionResult]:
    return [
        criterion_1_hessian_identity(),
        criterion_2_poisson_closed_form(),
        criterion_3_rate_zero_and_cone(),
        criterion_4_poisson_solver_equivalence(),
        criterion_5_variational_equality(),
        criterion_6_appendix_formula(),
        criterion_7_conditional_mgf(quick),
        criterion_8_tail_ldp_slope(quick),
        criterion_9_clt_covariance(quick),
        criterion_10_exact_moments(quick),
        criterion_11_moderate_trend(quick),
        criterion_12_regularity_taxonomy(),
    ]
