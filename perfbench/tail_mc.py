"""Workload ``tail_mc``: Monte Carlo tail and CLT estimates of (tau(x)/x, A(x)/x^2).

In-process, closed loop, ``workers=2``.  Sampling does nearly all the work:
the RNG draws of the model samplers, the weighted reduction and the blocks
scheduled over two threads.  Two levels use the sampler differently: at
x = 10.5 a 4096-sample block is a 4096 x 11 draw matrix (352 KiB), so
per-block overhead dominates; at x = 1000 it is 4096 x 1000 (32 MiB, well
over the L2 cache), so draw traffic dominates.
"""

from __future__ import annotations

import math
import time

import numpy as np

from harness import Checks

WORKERS = 2
SHORT_X, LONG_X = 10.5, 1000.0
SHORT_N, LONG_N = 1 << 18, 1 << 14
AREA_KINDS = ("exponential", "gamma")
SIGMAS = (1.8, 2.2)          # threshold: mean + U(SIGMAS) * sd of the scaled coordinate
# re-run with workers=1 (op, x, kind, coordinate): one call per level and estimator
RERUN = {("tail", SHORT_X, "exponential", "z1"), ("tail", LONG_X, "gamma", "z2"),
         ("moments", SHORT_X, "gamma", None)}


def plan(seed: int, rep: int, models: dict, tiny: bool = False) -> list[dict]:
    """The calls of one repetition; thresholds and Monte Carlo seeds come from (seed, rep)."""
    rng = np.random.default_rng([seed, rep, 2])
    short_n, long_n = (SHORT_N >> 4, LONG_N >> 4) if tiny else (SHORT_N, LONG_N)
    calls = []
    for x, n in ((SHORT_X, short_n), (LONG_X, long_n)):
        for kind, model in models.items():
            sd = math.sqrt(model.variance / x)
            c = model.mean + rng.uniform(*SIGMAS) * sd
            calls.append({"op": "tail", "kind": kind, "x": x, "n": n, "coord": "z1", "c": c,
                          "seed": int(rng.integers(2**31))})
        for kind in AREA_KINDS:
            model = models[kind]
            sd = math.sqrt(model.variance / (3.0 * x))
            c = 0.5 * model.mean + rng.uniform(*SIGMAS) * sd
            calls.append({"op": "tail", "kind": kind, "x": x, "n": n, "coord": "z2", "c": c,
                          "seed": int(rng.integers(2**31))})
    calls.append({"op": "clt", "kind": "exponential", "x": LONG_X, "n": long_n,
                  "seed": int(rng.integers(2**31))})
    calls.append({"op": "moments", "kind": "gamma", "x": SHORT_X, "n": short_n,
                  "seed": int(rng.integers(2**31))})
    return calls


def call(pkg, models: dict, spec: dict, workers: int):
    model = models[spec["kind"]]
    sim = pkg.simulate
    if spec["op"] == "tail":
        config = sim.SimulationConfig(model=model, x=spec["x"], n_samples=spec["n"],
                                      seed=spec["seed"], workers=workers)
        return sim.estimate_tail(config, sim.MarginalThreshold(spec["coord"], ">=", spec["c"]))
    fn = sim.empirical_clt if spec["op"] == "clt" else sim.empirical_moments
    return fn(model, spec["x"], spec["n"], spec["seed"], workers=workers)


def run(pkg, models: dict, seed: int, reps: int, checks: Checks, tiny: bool = False) -> dict:
    latencies: list[float] = []
    wall = 0.0
    total_draws = 0
    first = None
    for rep in range(reps):
        calls = plan(seed, rep, models, tiny)
        results = []
        start = time.perf_counter()
        for spec in calls:
            t0 = time.perf_counter()
            try:
                results.append(call(pkg, models, spec, WORKERS))
            except Exception as exc:  # counted as a failed operation
                results.append(exc)
            latencies.append(time.perf_counter() - t0)
        wall += time.perf_counter() - start
        total_draws += sum(spec["n"] * pkg.simulate.n_terms_for(spec["x"]) for spec in calls)
        _check(calls, results, checks)
        if first is None:
            first = (calls, results)
    single = _single_worker_rerun(pkg, models, *first, checks)
    return {"latencies": latencies, "wall_s": wall, "ops": len(latencies),
            "mdraws_per_s": total_draws / sum(latencies) / 1e6, **single}


def _check(calls, results, checks: Checks) -> None:
    for spec, res in zip(calls, results):
        tag = f"{spec['op']}[{spec['kind']}]"
        ok = checks.expect(f"op.{tag}", not isinstance(res, Exception),
                           type(res).__name__ if isinstance(res, Exception) else "")
        if not ok or spec["op"] != "tail":
            continue
        if res.exact_probability is not None:
            # exponential, integer x, passage-time event: incomplete-gamma oracle
            checks.expect("wilson_covers_exact[exponential]",
                          res.ci_low <= res.exact_probability <= res.ci_high,
                          f"{res.ci_low:.4g} <= {res.exact_probability:.4g} <= {res.ci_high:.4g}")


def _single_worker_rerun(pkg, models, calls, results, checks: Checks) -> dict:
    """Re-run a subset with ``workers=1``: outputs must match bit for bit."""
    t_one = t_two = 0.0
    for spec, res in zip(calls, results):
        if (spec["op"], spec["x"], spec["kind"], spec.get("coord")) not in RERUN:
            continue
        try:
            t0 = time.perf_counter()
            two = call(pkg, models, spec, WORKERS)
            t_two += time.perf_counter() - t0
            t0 = time.perf_counter()
            one = call(pkg, models, spec, 1)
            t_one += time.perf_counter() - t0
        except Exception:  # already counted as a failed operation in the main pass
            same = False
        else:
            if spec["op"] == "tail":
                same = one.hit_count == two.hit_count == getattr(res, "hit_count", None)
            else:
                same = one == two == res
        checks.require(f"workers_identical.{spec['op']}[{spec['kind']}]", same)
    return {"subset_one_worker_s": t_one, "subset_two_worker_s": t_two}
