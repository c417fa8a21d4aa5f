#!/usr/bin/env python3
"""Moderate-deviation trend table for the sup-norm exceedance event.

Tabulates a_x * log P(||scaled pair||_inf >= delta) across a grid of initial
levels against the quadratic-rate prediction; for exponential holding times
an exact-oracle column (gamma tails plus Chernoff-bounded area faces) shows
the slow prefactor convergence cleanly below Monte Carlo reach.

Usage: python scripts/md_trend_experiment.py --seed 5 [--model exponential:1]
       [--p 0.5] [--delta 1.0] [--x-grid 100,1000,10000] [--n 20000] [--out out.csv]
"""

import argparse

from renewal_ldp import empirical_md, parse_model_spec
from renewal_ldp.cli import emit_plot_data


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--model", default="exponential:1")
    parser.add_argument("--p", type=float, default=0.5)
    parser.add_argument("--delta", type=float, default=1.0)
    parser.add_argument("--x-grid", default="100,1000,10000", dest="x_grid")
    parser.add_argument("--n", type=int, default=20000)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    model = parse_model_spec(args.model)
    x_grid = [float(v) for v in args.x_grid.split(",")]
    rows = empirical_md(model, x_grid, p_exponent=args.p, delta=args.delta,
                        n_samples=args.n, seed=args.seed, workers=args.workers)
    for row in rows:
        row.setdefault("oracle_exponent", float("nan"))
    emit_plot_data(rows, "csv", args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
