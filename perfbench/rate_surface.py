"""Workload ``rate_surface``: rate-function values over the support cone.

In-process, one thread, closed loop: each evaluation starts when the previous
one returns.  The analytic layers (``lambda_surface``, ``quadrature``,
``rates``, ``moderate``) do nearly all the work and the sampler does none.
"""

from __future__ import annotations

import math
import time

import numpy as np

from harness import Checks

EDGE_FRACTIONS = (0.01, 0.03, 0.97, 0.99)
# The seed perturbs fixed anchors rather than drawing inputs anywhere in the
# cone: at the defining commit the cost of one evaluation swings by 10x and
# more across the cone, so free draws would make every timing depend on the
# seed.  Small perturbations give each seed its own inputs with one cost profile.
Z1_ANCHORS = (0.6, 1.2, 2.0, 3.0)      # z1 levels, in multiples of the model mean
Z1_JITTER = 0.03                       # each level is scaled by U(1 - j, 1 + j)
F_ANCHORS = (0.2, 0.35)                # interior area fractions f; each comes with 1 - f
F_JITTER = 0.01                        # each is shifted by U(-j, j)
# At the defining commit an inverse-Gaussian point costs 1-6 s, a gamma edge
# point 0.5-2 s and a noncentral chi-squared edge point 10-150 ms, and which
# one depends erratically on the input (ascent fallback, quadrature near the
# domain boundary).  Those rows sit at a fixed level so that the seed moves
# only inputs whose cost is regular; the seed still sets every other level
# and fraction.
FIXED_Z1 = 1.5
FIXED_IG_PAIR = (0.4, 0.6)
HALF_PLANE_C = 1.5                     # {z1 >= c * mean}
HALF_PLANE_KINDS = ("exponential", "noncentral_chi_squared", "gamma")
MARGINAL_KINDS = ("exponential", "gamma", "noncentral_chi_squared")
PSI_BATCH = 64            # psi* evaluations per model, in one operation
MD_DELTA = 0.5

IDENTITY_TOL = 1e-6       # acceptance criteria 4-5
REFLECTION_TOL = 1e-6     # relative
HALF_PLANE_TOL = 1e-6
MD_TOL = 1e-12            # relative


def plan(pkg, seed: int, rep: int, models: dict, tiny: bool = False) -> dict:
    """Inputs of one repetition, drawn from (seed, rep)."""
    rng = np.random.default_rng([seed, rep, 1])
    levels = [a * rng.uniform(1 - Z1_JITTER, 1 + Z1_JITTER) for a in Z1_ANCHORS]
    bases = [f + rng.uniform(-F_JITTER, F_JITTER) for f in F_ANCHORS]
    interior = [f for b in bases for f in (b, 1.0 - b)]
    psi_points = rng.normal(size=(PSI_BATCH, 2))
    md_planes = [pkg.moderate.HalfPlane((float(a), float(b)), MD_DELTA) for a, b in rng.normal(size=(8, 2))]
    if tiny:
        levels, interior = levels[:1], interior[:2]
    fixed = FIXED_Z1 + 0.5 * rep
    grid = {}
    for kind, model in models.items():
        mean = model.mean
        points = []
        if kind == "exponential":
            for z1 in levels:
                points += [(z1 * mean, f) for f in EDGE_FRACTIONS + tuple(interior)]
        elif kind in ("noncentral_chi_squared", "gamma"):
            for z1 in levels:
                points += [(z1 * mean, f) for f in interior]
            if not tiny:
                points += [(fixed * mean, f) for f in EDGE_FRACTIONS]
        else:  # inverse_gaussian
            points += [(fixed * mean, f) for f in FIXED_IG_PAIR]
            if not tiny:
                points += [(fixed * mean, f) for f in EDGE_FRACTIONS]
        grid[kind] = points
    return {
        "grid": grid,
        "levels": levels,
        "marginal_z2": [z1 * bases[0] for z1 in levels],
        "psi_points": psi_points,
        "md_planes": md_planes,
        "half_plane": not tiny,
    }


def run(pkg, models: dict, seed: int, reps: int, checks: Checks, tiny: bool = False) -> dict:
    """Evaluate ``reps`` repetitions; returns per-operation latencies and the work wall time."""
    latencies: list[float] = []
    names: list[str] = []
    wall = 0.0
    rate_ops = useful = 0
    for rep in range(reps):
        p = plan(pkg, seed, rep, models, tiny)
        ops: list = []   # (label, thunk)
        results: dict = {}

        def add(label, thunk):
            ops.append((label, thunk))

        for kind, points in p["grid"].items():
            model = models[kind]
            for z1, f in points:
                add(("rate_ld", kind, z1, f), lambda m=model, z1=z1, f=f: pkg.rates.rate_ld(m, z1, f * z1))
                if kind == "exponential":
                    add(("poisson", kind, z1, f),
                        lambda lam=model.params["lam"], z1=z1, f=f:
                            pkg.rates.rate_ld_poisson(lam, z1, f * z1))
                    add(("J", kind, z1, f),
                        lambda m=model, z1=z1, f=f: pkg.rates.conditional_rate_J(m, z1, f * z1))
        for kind in MARGINAL_KINDS:
            model = models[kind]
            for z1 in p["levels"]:
                add(("I1", kind, z1), lambda m=model, z=z1 * model.mean: pkg.rates.marginal_I1(m, z))
            for z2 in p["marginal_z2"]:
                add(("I2", kind, z2), lambda m=model, z=z2 * model.mean: pkg.rates.marginal_I2(m, z))
        if p["half_plane"]:
            for kind in HALF_PLANE_KINDS:
                model = models[kind]
                c = HALF_PLANE_C * model.mean
                event = pkg.simulate.PredicateEvent(lambda z1, z2, c=c: z1 >= c, f"z1>={c:g}")
                add(("half_plane", kind, c),
                    lambda m=model, e=event: pkg.simulate.ld_event_rate(m, e, 100.0))
        for kind, model in models.items():
            add(("md_batch", kind), lambda m=model: _md_batch(pkg, m, p))
        # a seeded random order spreads every kind of operation over the whole
        # run, so each latency percentile samples the host's speed throughout
        order = np.random.default_rng([seed, rep, 4]).permutation(len(ops))
        ops = [ops[i] for i in order]

        start = time.perf_counter()
        for label, thunk in ops:
            t0 = time.perf_counter()
            try:
                results[label] = thunk()
            except Exception as exc:  # a typed error is an outcome to count, not a crash
                results[label] = exc
            latencies.append(time.perf_counter() - t0)
            names.append(f"{label[0]}[{label[1]}]")
        wall += time.perf_counter() - start

        ok_ops = _check(pkg, models, p, results, checks)
        rate_ops += len(ok_ops)
        useful += sum(ok_ops.values())
    return {"latencies": latencies, "names": names, "wall_s": wall, "ops": len(latencies),
            "rate_ops": rate_ops, "useful_rate_ops": useful}


def _md_batch(pkg, model, p) -> dict:
    """One operation: the psi* batch plus the moderate rates of the half-planes and sup-norm region."""
    mod = pkg.moderate
    return {
        "psi_star": [mod.psi_star(model, float(z1), float(z2)) for z1, z2 in p["psi_points"]],
        "half_planes": [mod.md_event_rate(model, plane) for plane in p["md_planes"]],
        "sup_norm": mod.md_event_rate(model, mod.sup_norm_exceedance(MD_DELTA)),
    }


def close(a: float, b: float, tol: float) -> bool:
    return math.isfinite(a) and math.isfinite(b) and abs(a - b) <= tol


def rel_close(a: float, b: float, tol: float) -> bool:
    if not (math.isfinite(a) and math.isfinite(b)):
        return False
    scale = max(abs(a), abs(b))
    return scale == 0.0 or abs(a - b) <= tol * scale


def _failed_op(res) -> bool:
    if isinstance(res, Exception):
        return True
    return hasattr(res, "converged") and not res.converged


def _value(res) -> float:
    return math.nan if isinstance(res, Exception) else float(getattr(res, "value", res))


def _check(pkg, models, p, results, checks: Checks) -> dict:
    """Run the correctness checks of one repetition; returns {rate op label: useful}."""
    useful = {}
    for label, res in results.items():
        kind = label[1]
        what = label[0]
        detail = type(res).__name__ if isinstance(res, Exception) else ""
        ok = checks.expect(f"op.{what}[{kind}]", not _failed_op(res), detail)
        if what in ("rate_ld", "poisson"):
            useful[label] = ok

    exp = models["exponential"]
    for z1, f in p["grid"]["exponential"]:
        oracle = (pkg.models.phi_star(exp, z1).value
                  + pkg.conditional.kappa_star(f * z1, z1).value)
        for what in ("rate_ld", "poisson"):
            label = (what, "exponential", z1, f)
            ok = checks.expect(f"exp_identity.{what}", close(_value(results[label]), oracle,
                                                              IDENTITY_TOL))
            useful[label] = useful[label] and ok

    for kind, points in p["grid"].items():
        present = set(points)
        for z1, f in points:
            if f < 0.5 and (z1, 1.0 - f) in present:
                a = _value(results[("rate_ld", kind, z1, f)])
                b = _value(results[("rate_ld", kind, z1, 1.0 - f)])
                ok = checks.expect(f"reflection[{kind}]", rel_close(a, b, REFLECTION_TOL))
                for g in (f, 1.0 - f):
                    useful[("rate_ld", kind, z1, g)] = useful[("rate_ld", kind, z1, g)] and ok

    for label, res in results.items():
        if label[0] == "half_plane":
            kind, c = label[1], label[2]
            oracle = pkg.models.phi_star(models[kind], c).value
            checks.expect(f"half_plane[{kind}]", close(_value(res), oracle, HALF_PLANE_TOL))
    for model in models.values():
        _check_md(pkg, model, p, results, checks)
    return useful


def _check_md(pkg, model, p, results, checks: Checks) -> None:
    """A half-plane's moderate rate is psi* at its minimiser c C n / (n' C n);
    the sup-norm region's is the least of its four faces'."""
    batch = results[("md_batch", model.kind)]
    if isinstance(batch, Exception):
        return  # counted as a failed operation
    C = pkg.lambda_surface.hessian_origin(model).C
    ok = True
    for plane, rate in zip(p["md_planes"], batch["half_planes"]):
        n = np.array(plane.normal)
        z = plane.offset * (C @ n) / float(n @ C @ n)
        ok = ok and rel_close(rate, pkg.moderate.psi_star(model, float(z[0]), float(z[1])), MD_TOL)
    faces = [pkg.moderate.md_event_rate(model, part)
             for part in pkg.moderate.sup_norm_exceedance(MD_DELTA).parts]
    checks.require(f"md_identity[{model.kind}]", ok and batch["sup_norm"] == min(faces))
