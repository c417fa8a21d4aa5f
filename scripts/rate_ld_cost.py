#!/usr/bin/env python3
"""Cost of one rate_ld call over a fixed 200-point grid of the four built-in models.

The grid is z1 in {0.6, 1.2, 2, 3, 5} times the model mean and z2/z1 in
{1e-6, 0.01, 0.1, 0.2, 0.35, 0.5, 0.65, 0.9, 0.99, 1 - 1e-6}: the edges, the
interior and the midline.  One counting pass wraps rates._second_order, through
which rates.rate_ld evaluates L with its gradient and Hessian (one call per
Newton evaluation, line-search trials included), and reports evaluations and
Newton steps per call; then the unwrapped grid runs --repeats times and each
pass gives its wall time per call.  ``per_kind`` reports the same per model
kind (the closed-form inverse-Gaussian rate reads 0 evaluations and 0 steps),
so that a change in one kind is not hidden in the mean over four.

``kernel`` reports, per model kind, the median over --repeats passes of the
microseconds of one rates._second_order call (the model table's segment kernel
behind the domain check) at the arguments that the counting pass recorded; the
inverse-Gaussian rate records none, and reads null.

``duals`` reports the one-dimensional duals the same way, as the steps of each
call and the median microseconds per call over --repeats passes:
``marginal_I2`` at z2 in {0.05, 0.3, 0.45, 0.55, 1, 1.5, 3} times the mean,
``line_rate`` on the normals (1, 1), (1, -0.5) and (1, 0.3) at offsets of those
multiples of n.p, both per model kind, and ``kappa_star`` at z2/z1 in
{0.05, 0.2, 0.35, 0.45}.  Prints one JSON object.

Usage: python scripts/rate_ld_cost.py [--repeats 5]
"""

import argparse
import json
import statistics
import time

from renewal_ldp import builtin_models, conditional, rates

Z1_LEVELS = (0.6, 1.2, 2.0, 3.0, 5.0)
FRACTIONS = (1e-6, 0.01, 0.1, 0.2, 0.35, 0.5, 0.65, 0.9, 0.99, 1.0 - 1e-6)
DUAL_LEVELS = (0.05, 0.3, 0.45, 0.55, 1.0, 1.5, 3.0)
NORMALS = ((1.0, 1.0), (1.0, -0.5), (1.0, 0.3))
KAPPA_RATIOS = (0.05, 0.2, 0.35, 0.45)


def grid() -> dict:
    """The grid's points by model kind."""
    return {model.kind: [(model, z1 * model.mean, f * z1 * model.mean) for z1 in Z1_LEVELS for f in FRACTIONS]
            for model in builtin_models()}


def count_pass(points) -> tuple[list, int]:
    """The arguments of every evaluation of L with its derivatives, and the Newton steps summed over the points."""
    recorded = []
    evaluate = rates._second_order

    def counted(*args):
        recorded.append(args)
        return evaluate(*args)

    rates._second_order = counted
    try:
        iterations = sum(rates.rate_ld(model, z1, z2).iterations for model, z1, z2 in points)
    finally:
        rates._second_order = evaluate
    return recorded, iterations


def kernel_cost(recorded, repeats: int) -> dict:
    """The median over the passes of the microseconds per _second_order call at the recorded arguments."""
    seconds = []
    for _ in range(repeats):
        start = time.perf_counter()
        for args in recorded:
            rates._second_order(*args)
        seconds.append(time.perf_counter() - start)
    return {"evaluations": len(recorded),
            "us_per_call_median": round(1e6 * statistics.median(seconds) / len(recorded), 3) if recorded else None}


def timed_pass(points) -> float:
    """Wall seconds of one pass over the points."""
    start = time.perf_counter()
    for model, z1, z2 in points:
        rates.rate_ld(model, z1, z2)
    return time.perf_counter() - start


def dual_calls() -> dict:
    """The duals' calls, as argument-free closures, by dual and model kind."""
    def marginal(model, level):
        return lambda: rates.marginal_I2(model, level * model.mean)

    def line(model, normal, level):
        return lambda: rates.line_rate(model, normal, level * (normal[0] + 0.5 * normal[1]) * model.mean)

    models = builtin_models()
    return {
        "marginal_I2": {model.kind: [marginal(model, level) for level in DUAL_LEVELS] for model in models},
        "line_rate": {model.kind: [line(model, normal, level) for normal in NORMALS for level in DUAL_LEVELS]
                      for model in models},
        "kappa_star": {"uniform": [lambda r=r: conditional.kappa_star(r, 1.0) for r in KAPPA_RATIOS]},
    }


def dual_cost(calls, repeats: int) -> dict:
    """Steps of each call and the median over the passes of the microseconds per call."""
    steps = [call().iterations for call in calls]
    seconds = []
    for _ in range(repeats):
        start = time.perf_counter()
        for call in calls:
            call()
        seconds.append(time.perf_counter() - start)
    return {"steps": steps, "steps_median": statistics.median(steps),
            "us_per_call_median": round(1e6 * statistics.median(seconds) / len(calls), 2)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()

    by_kind = grid()
    counts = {kind: count_pass(points) for kind, points in by_kind.items()}
    seconds = {kind: [] for kind in by_kind}
    for _ in range(args.repeats):
        for kind, points in by_kind.items():
            seconds[kind].append(timed_pass(points))
    calls = sum(len(points) for points in by_kind.values())
    ms = [1e3 * sum(run) / calls for run in zip(*seconds.values())]
    per_kind = {kind: {
        "evaluations_per_call": len(counts[kind][0]) / len(points),
        "iterations_per_call": counts[kind][1] / len(points),
        "ms_per_call_median": round(1e3 * statistics.median(seconds[kind]) / len(points), 4),
    } for kind, points in by_kind.items()}
    print(json.dumps({
        "calls": calls,
        "evaluations_per_call": sum(len(c[0]) for c in counts.values()) / calls,
        "iterations_per_call": sum(c[1] for c in counts.values()) / calls,
        "ms_per_call": [round(v, 4) for v in ms],
        "ms_per_call_median": round(statistics.median(ms), 4),
        "per_kind": per_kind,
        "kernel": {kind: kernel_cost(recorded, args.repeats) for kind, (recorded, _) in counts.items()},
        "duals": {dual: {kind: dual_cost(calls, args.repeats) for kind, calls in by_kind.items()}
                  for dual, by_kind in dual_calls().items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
