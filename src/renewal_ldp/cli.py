"""Command-line front end: structured, reproducible access to every computation.

Subcommands: model, lambda, rate, moderate, simulate, conditional, validate.
All JSON outputs carry a top-level ``"schema": "v1"`` key; floats in emitted
artifacts are serialized with 17 significant digits so runs with identical
arguments and seed produce byte-identical files.  Randomized subcommands
require an explicit --seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict

import numpy as np

from . import acceptance
from . import conditional as cond
from . import lambda_surface as surf
from . import moderate as mod
from . import simulate as sim
from .models import MODEL_TABLE, classify_domain, parse_model_spec
from .rates import rate_ld, rate_ld_poisson

SCHEMA = "v1"


def _fmt(value) -> str:
    """17-significant-digit decimal form; round-trips any double."""
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            return "nan"
        return format(value, ".17g")
    return str(value)


def _jsonable(obj):
    """Recursively convert results to JSON-compatible structures."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, (np.floating,)):
        obj = float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, float):
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        if math.isnan(obj):
            return "nan"
        return float(_fmt(obj))
    return obj


def _write(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out, "w") as fh:
            fh.write(text)


def emit_json(payload: dict, out: str | None) -> None:
    body = dict(payload)
    body["schema"] = SCHEMA
    _write(json.dumps(_jsonable(body), indent=2, sort_keys=True), out)


def emit_plot_data(results: list[dict], fmt: str, out: str | None) -> None:
    """Write sweep results as CSV (fixed column order) or JSON rows."""
    if not results:
        raise ValueError("no results to emit")
    columns = list(results[0].keys())
    if fmt == "csv":
        lines = [",".join(columns)]
        for row in results:
            lines.append(",".join(_fmt(row[c]) for c in columns))
        _write("\n".join(lines) + "\n", out)
    elif fmt == "json":
        emit_json({"columns": columns, "rows": results}, out)
    else:
        raise ValueError(f"unknown format {fmt!r}")


def _parse_grid(text: str) -> list[float]:
    """Grid mini-syntax: comma list ``0,0.5,1`` or linspace ``lo:hi:count``."""
    if ":" in text:
        lo, hi, count = text.split(":")
        return [float(v) for v in np.linspace(float(lo), float(hi), int(count))]
    return [float(v) for v in text.split(",")]


def _default_workers() -> int:
    return int(os.environ.get("RENEWAL_LDP_WORKERS", "1"))


# ---------------------------------------------------------------------------
# subcommands


def cmd_model(args) -> int:
    model = parse_model_spec(args.model)
    emit_json(
        {
            "descriptor": model.descriptor(),
            "mean": model.mean,
            "variance": model.variance,
            "domain": {
                "boundary": model.domain.boundary,
                "boundary_closed": model.domain.boundary_closed,
                "integrable_at_boundary": model.domain.integrable_at_boundary,
                "case": classify_domain(model).value,
            },
            "sampler": model.sampler_spec,
        },
        args.out,
    )
    return 0


def cmd_lambda(args) -> int:
    model = parse_model_spec(args.model)
    rows = []
    for a1 in _parse_grid(args.a1):
        for a2 in _parse_grid(args.a2):
            value = surf.lambda_eval(model, a1, a2)
            finite = math.isfinite(value)
            if finite and surf.in_lambda_domain_interior(model, a1, a2):
                g1, g2 = surf.lambda_grad(model, a1, a2)
            else:
                g1 = g2 = float("nan")
            rows.append(
                {"a1": a1, "a2": a2, "value": value, "grad1": g1, "grad2": g2,
                 "finite": int(finite)}
            )
    emit_plot_data(rows, args.format, args.out)
    return 0


def _rate_payload(model, z1, z2, method):
    if method == "poisson":
        if model.kind != "exponential":
            raise SystemExit("--method poisson requires an exponential model")
        lam = model.domain.boundary
        res = rate_ld_poisson(lam, z1, z2)
    else:
        res = rate_ld(model, z1, z2)
    return {
        "z1": z1,
        "z2": z2,
        "value": res.value,
        "tilt": list(res.argmax_tilt) if res.argmax_tilt is not None else None,
        "converged": res.converged,
        "method": res.method,
        "iterations": res.iterations,
    }


def cmd_rate(args) -> int:
    model = parse_model_spec(args.model)
    if args.grid:
        z1_spec, z2_spec = args.grid.split(";")
        rows = []
        for z1 in _parse_grid(z1_spec):
            for z2 in _parse_grid(z2_spec):
                rows.append(_rate_payload(model, z1, z2, args.method))
        emit_json({"rows": rows}, args.out)
        return 0
    if args.z1 is None or args.z2 is None:
        raise SystemExit("rate requires --z1 and --z2 (or --grid)")
    emit_json(_rate_payload(model, args.z1, args.z2, args.method), args.out)
    return 0


def _parse_region(text: str):
    """Region mini-syntax: ``supnorm>delta`` for the sup-norm exceedance."""
    if text.startswith("supnorm>"):
        return mod.sup_norm_exceedance(float(text[len("supnorm>"):]))
    raise SystemExit(f"cannot parse region {text!r}; expected e.g. 'supnorm>1'")


def cmd_moderate(args) -> int:
    model = parse_model_spec(args.model)
    scaling = mod.ModerateScaling(p=args.p)
    region = _parse_region(args.region)
    x_grid = _parse_grid(args.x_grid)
    rate = mod.md_event_rate(model, region)
    payload = {
        "model": model.descriptor(),
        "p": args.p,
        "region": args.region,
        "predicted_exponent": -rate,
        "scaling_valid": scaling.validate(x_grid),
        "moments": [asdict(mod.exact_moments(model, x)) for x in x_grid],
        "correlation_limit": mod.CORRELATION_LIMIT,
    }
    emit_json(payload, args.out)
    return 0


def cmd_simulate(args) -> int:
    model = parse_model_spec(args.model)
    config = sim.SimulationConfig(
        model=model, x=args.x, n_samples=args.n, seed=args.seed, workers=args.workers
    )
    if args.event:
        event = sim.parse_event(args.event)
        est = sim.estimate_tail(config, event)
        emit_json(asdict(est), args.out)
        return 0
    rows = []

    def collect(tau, area):
        return np.column_stack([tau, area])

    n_terms = sim.n_terms_for(args.x)
    for chunk in sim.map_blocks(config, collect):
        for tau, area in chunk:
            rows.append({"x": args.x, "tau": float(tau), "area": float(area),
                         "n_terms": n_terms})
    emit_plot_data(rows, "csv", args.out)
    return 0


def cmd_conditional(args) -> int:
    payload = {
        "x": args.x,
        "y": args.y,
        "beta": args.beta,
        "log_conditional_mgf": cond.log_conditional_mgf(args.x, args.y, args.beta),
        "conditional_mgf": cond.conditional_mgf(args.x, args.y, args.beta),
        "kappa": cond.kappa(args.beta, args.y),
    }
    if args.x >= 2:
        payload["nested_integral"] = cond.nested_integral(args.x, args.y, args.beta,
                                                          mode=args.mode)
        payload["integral_mode"] = args.mode
    emit_json(payload, args.out)
    return 0


def cmd_validate(args) -> int:
    results = acceptance.run_all(quick=args.quick)
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"[{status}] {r.index:2d} {r.name:<{width}}  {r.detail}")
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="renewal-ldp",
        description=(
            "Large/moderate deviations of first-passage times and areas of "
            "renewal processes.  Models use the mini-syntax kind:param[,param] "
            "with positional parameters: "
            + ", ".join(f"{kind}:{','.join(row.params)}" for kind, row in MODEL_TABLE.items())
            + "."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("model", help="describe a holding-time model")
    p.add_argument("--model", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_model)

    p = sub.add_parser("lambda", help="evaluate the bivariate limit function on a grid")
    p.add_argument("--model", required=True)
    p.add_argument("--a1", required=True, help="grid: comma list or lo:hi:count")
    p.add_argument("--a2", required=True, help="grid: comma list or lo:hi:count")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_lambda)

    p = sub.add_parser("rate", help="bivariate large-deviation rate function")
    p.add_argument("--model", required=True)
    p.add_argument("--z1", type=float, default=None)
    p.add_argument("--z2", type=float, default=None)
    p.add_argument("--grid", default=None,
                   help="two grids separated by ';', e.g. '0.5:2:4;0.1:1:4'")
    p.add_argument("--method", choices=("auto", "poisson"), default="auto")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_rate)

    p = sub.add_parser("moderate", help="moderate-deviation exponents and exact moments")
    p.add_argument("--model", required=True)
    p.add_argument("--p", type=float, default=0.5, help="scaling exponent in (0,1)")
    p.add_argument("--region", required=True, help="e.g. 'supnorm>1'")
    p.add_argument("--x-grid", required=True, dest="x_grid")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_moderate)

    p = sub.add_parser("simulate", help="exact Monte Carlo of the passage pair")
    p.add_argument("--model", required=True)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workers", type=int, default=_default_workers())
    p.add_argument("--event", default=None, help="e.g. 'z1>=1.5'; omit to dump samples")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("conditional", help="conditional area law given the passage time")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--y", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--mode", choices=("closed_form", "brute_force"), default="closed_form")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_conditional)

    p = sub.add_parser("validate", help="run the acceptance suite")
    p.add_argument("--quick", action="store_true",
                   help="smaller Monte Carlo budgets for the statistical criteria")
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(f"error: {exc.code}", file=sys.stderr)
            return 2
        return int(exc.code) if exc.code is not None else 0


if __name__ == "__main__":
    sys.exit(main())
