#!/usr/bin/env python3
"""Cost of one rate_ld call over a fixed 200-point grid of the four built-in models.

The grid is z1 in {0.6, 1.2, 2, 3, 5} times the model mean and z2/z1 in
{1e-6, 0.01, 0.1, 0.2, 0.35, 0.5, 0.65, 0.9, 0.99, 1 - 1e-6}: the edges, the
interior and the midline.  One counting pass wraps rates._second_order, through
which rates.rate_ld evaluates L with its gradient and Hessian (one call per
Newton evaluation, line-search trials included), and reports evaluations and
Newton steps per call; then the unwrapped grid runs --repeats times and each
pass gives its wall time per call.  Prints one JSON object.

Usage: python scripts/rate_ld_cost.py [--repeats 5]
"""

import argparse
import json
import statistics
import time

from renewal_ldp import builtin_models, rates

Z1_LEVELS = (0.6, 1.2, 2.0, 3.0, 5.0)
FRACTIONS = (1e-6, 0.01, 0.1, 0.2, 0.35, 0.5, 0.65, 0.9, 0.99, 1.0 - 1e-6)


def grid() -> list:
    return [(model, z1 * model.mean, f * z1 * model.mean)
            for model in builtin_models() for z1 in Z1_LEVELS for f in FRACTIONS]


def count_pass(points) -> tuple[int, int]:
    """Evaluations of L with its derivatives, and Newton steps, summed over the grid."""
    calls = {"n": 0}
    evaluate = rates._second_order

    def counted(*args):
        calls["n"] += 1
        return evaluate(*args)

    rates._second_order = counted
    try:
        iterations = sum(rates.rate_ld(model, z1, z2).iterations for model, z1, z2 in points)
    finally:
        rates._second_order = evaluate
    return calls["n"], iterations


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()

    points = grid()
    evaluations, iterations = count_pass(points)
    ms = []
    for _ in range(args.repeats):
        start = time.perf_counter()
        for model, z1, z2 in points:
            rates.rate_ld(model, z1, z2)
        ms.append(1e3 * (time.perf_counter() - start) / len(points))
    print(json.dumps({
        "calls": len(points),
        "evaluations_per_call": evaluations / len(points),
        "iterations_per_call": iterations / len(points),
        "ms_per_call": [round(v, 4) for v in ms],
        "ms_per_call_median": round(statistics.median(ms), 4),
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
