#!/usr/bin/env python3
"""Empirical exponential decay of a rare passage-time event vs the predicted rate.

For a chosen model and event on the scaled pair, estimates P(event) by plain
Monte Carlo over a grid of initial levels x, reports -log(p_hat)/x next to
the large-deviation rate, and (exponential holding times, passage-time
events) the exact gamma-tail value.

Usage: python scripts/tail_decay_experiment.py --seed 7 [--model exponential:1]
       [--event "z1>=1.5"] [--x-grid 25,50,100,200] [--n 200000] [--out out.csv]
"""

import argparse
import math

from renewal_ldp import SimulationConfig, estimate_tail, parse_event, parse_model_spec
from renewal_ldp.cli import emit_plot_data


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--model", default="exponential:1")
    parser.add_argument("--event", default="z1>=1.5")
    parser.add_argument("--x-grid", default="25,50,100,200", dest="x_grid")
    parser.add_argument("--n", type=int, default=200000)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    model = parse_model_spec(args.model)
    event = parse_event(args.event)
    rows = []
    for x in (float(v) for v in args.x_grid.split(",")):
        config = SimulationConfig(model=model, x=x, n_samples=args.n,
                                  seed=args.seed, workers=args.workers)
        est = estimate_tail(config, event)
        rows.append({
            "x": x,
            "hits": est.hit_count,
            "p_hat": est.p_hat,
            "empirical_rate": est.empirical_rate if est.empirical_rate is not None
            else float("nan"),
            "zero_hit_rate_bound": est.zero_hit_bound if est.zero_hit_bound is not None
            else float("nan"),
            "predicted_rate": est.predicted_rate,
            "exact_rate": -math.log(est.exact_probability) / x
            if est.exact_probability not in (None, 0.0) else float("nan"),
        })
    emit_plot_data(rows, "csv", args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
