#!/usr/bin/env python3
"""Cost of the ray search of simulate.ld_event_rate on a fixed set of PredicateEvents.

For each built-in model, the events are opaque predicates in multiples of the
model mean: both tails of both coordinates and thin events at the apex and
along z2 = 0 (z1 >= 1.5, z1 <= 0.6, z2 >= 0.8, z2 <= 0.3, z1 <= 0.05,
z2 <= 0.02), five tilted half-planes {n.z >= c}, the last a thin wedge that no
ray enters, and {z1 >= 1.5}, the half-plane of the rate_surface benchmark, once
more in the benchmark's own form.  One counting pass wraps the first-hit
evaluation and rate_ld in simulate and reports both per event; then the
events run --repeats times with a timer around rate_ld, and each pass gives
its wall time per event and the part of it spent outside rate_ld: the march,
the bisections and the angle search.  Prints one JSON object.

Usage: python scripts/ray_search_cost.py [--repeats 5]
"""

import argparse
import json
import statistics
import time

from renewal_ldp import MarginalThreshold, PredicateEvent, builtin_models, simulate

AXIS_CASES = (("z1", ">=", 1.5), ("z1", "<=", 0.6), ("z2", ">=", 0.8), ("z2", "<=", 0.3),
              ("z1", "<=", 0.05), ("z2", "<=", 0.02))
TILTED_CASES = (((1.0, 1.0), 2.4), ((1.0, -2.0), 0.5), ((-1.0, 1.0), -0.3), ((1.0, 3.0), 3.5),
                ((0.0625, -0.998), 1.392))
BENCHMARK_LEVEL = 1.5


def events(model) -> list:
    m = model.mean
    fns = [lambda z1, z2, t=MarginalThreshold(coord, op, level * m): t.contains(z1, z2)
           for coord, op, level in AXIS_CASES]
    fns += [lambda z1, z2, n=normal, c=level * m: n[0] * z1 + n[1] * z2 >= c for normal, level in TILTED_CASES]
    fns.append(lambda z1, z2, c=BENCHMARK_LEVEL * m: z1 >= c)
    return [PredicateEvent(fn, "ray_search_cost") for fn in fns]


def count_pass(model, evs) -> dict:
    """First-hit evaluations and rate_ld calls of each event, from wrappers in simulate."""
    counts = {"_first_hit_rate": 0, "rate_ld": 0}
    originals = {name: getattr(simulate, name) for name in counts}

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    for name, fn in originals.items():
        setattr(simulate, name, counted(name, fn))
    per_event = []
    try:
        for event in evs:
            counts.update(dict.fromkeys(counts, 0))
            simulate.ld_event_rate(model, event, 100.0)
            per_event.append((counts["_first_hit_rate"], counts["rate_ld"]))
    finally:
        for name, fn in originals.items():
            setattr(simulate, name, fn)
    return per_event


def timed_pass(model, evs) -> tuple[float, float]:
    """Seconds of one pass over the events, and the part of them spent inside rate_ld."""
    rate_ld, inside = simulate.rate_ld, 0.0

    def timed(*args):
        nonlocal inside
        start = time.perf_counter()
        try:
            return rate_ld(*args)
        finally:
            inside += time.perf_counter() - start

    simulate.rate_ld = timed
    try:
        start = time.perf_counter()
        for event in evs:
            simulate.ld_event_rate(model, event, 100.0)
        return time.perf_counter() - start, inside
    finally:
        simulate.rate_ld = rate_ld


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()

    report = {}
    for model in builtin_models():
        evs = events(model)
        per_event = count_pass(model, evs)
        ms, outside = [], []
        for _ in range(args.repeats):
            total, inside = timed_pass(model, evs)
            ms.append(1e3 * total / len(evs))
            outside.append(1e3 * (total - inside) / len(evs))
        report[model.kind] = {
            "events": len(evs),
            "evaluations_per_event": sum(e for e, _ in per_event) / len(evs),
            "rate_ld_calls_per_event": sum(r for _, r in per_event) / len(evs),
            "benchmark_half_plane": {"evaluations": per_event[-1][0], "rate_ld_calls": per_event[-1][1]},
            "ms_per_event": [round(v, 4) for v in ms],
            "ms_per_event_median": round(statistics.median(ms), 4),
            "ms_outside_rate_ld_per_event": [round(v, 4) for v in outside],
            "ms_outside_rate_ld_per_event_median": round(statistics.median(outside), 4),
        }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
