"""Benchmark of renewal-ldp: three closed-loop workloads, end-to-end and per-layer metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload rate_surface --seed 1 --seconds 25 --trace 0

``--workload all`` runs the three workloads one after another, each in its own
process, and prints every metric by name, unit and workload.  ``--trace 0``
prints the end-to-end metrics named in BENCHMARK.json; ``--trace 1`` runs the
workload untraced, then again under the span tracer, and prints the per-layer
metrics (tracing overhead included).  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``; a
fuller record (environment, checks, every metric) goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import types
from pathlib import Path

import harness
from harness import OUT, ROOT, SRC, Checks

WORKLOADS = ("rate_surface", "tail_mc", "cli_session")
DEFAULT_SEED = 1
# Work per repetition, in seconds at the commit that defined the benchmark
# (2-core Xeon, Python 3.11).  A run repeats the work list round(seconds /
# this) times (at least once), with fresh inputs per repetition, so the work
# done for a given --seconds is fixed and every count repeats exactly.
REP_SECONDS = {"rate_surface": 25.0, "tail_mc": 5.0, "cli_session": 27.0}
ORACLE_CHECKS = ("exp_identity", "reflection", "half_plane")


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def check_sources() -> None:
    if not (SRC / "renewal_ldp" / "__init__.py").is_file():
        raise SystemExit(f"error: no package sources under {SRC}; run from a checkout")


def import_package():
    """The package from this checkout's ``src``; refuses any other copy."""
    check_sources()
    sys.path.insert(0, str(SRC))
    import renewal_ldp
    from renewal_ldp import (conditional, lambda_surface, models, moderate, rates,
                             simulate)
    if Path(renewal_ldp.__file__).resolve().parent != (SRC / "renewal_ldp").resolve():
        raise SystemExit(f"error: imported renewal_ldp from {renewal_ldp.__file__}")
    return types.SimpleNamespace(models=models, rates=rates, simulate=simulate,
                                 conditional=conditional, moderate=moderate,
                                 lambda_surface=lambda_surface)


def run_once(workload: str, pkg, seed: int, reps: int, tracer=None, trace_dir=None,
             tiny: bool = False):
    """The work list, repeated ``reps`` times; returns (workload result, checks)."""
    checks = Checks()
    if workload == "cli_session":
        import cli_session
        return cli_session.run(seed, reps, checks, trace_dir=trace_dir, tiny=tiny), checks
    models = {kind: pkg.models.make_model(kind, dict(params))
              for kind, params in pkg.models.BUILTIN_MODELS.items()}
    if tracer is not None:
        models = {kind: tracer.instrument_model(m) for kind, m in models.items()}
    if workload == "rate_surface":
        import rate_surface
        return rate_surface.run(pkg, models, seed, reps, checks, tiny=tiny), checks
    import tail_mc
    return tail_mc.run(pkg, models, seed, reps, checks, tiny=tiny), checks


def end_to_end(workload: str, res: dict, setup: dict) -> dict:
    deciles = statistics.quantiles(res["latencies"], n=10)  # default method, as for the spreads
    return {
        "setup_s": setup["setup_s"],
        "wall_s": res["wall_s"],
        "op_p50_ms": 1e3 * deciles[4],
        "op_p90_ms": 1e3 * deciles[8],
        "peak_rss_mb": harness.peak_rss_mb(children=workload == "cli_session"),
    }


def per_layer(agg: dict, res: dict, checks: Checks, probes: dict, walls: tuple) -> dict:
    cnt, tot, own, err, ctr = (agg[k] for k in ("count", "total", "self", "errors", "counters"))

    def layer(prefix, table):
        return sum(v for k, v in table.items() if k.startswith(prefix + "."))

    out = {
        "cli.import_s": probes["import_s"],
        "cli.import_scipy_s": probes["import_scipy_s"],
        "cli.serialize_s": own.get("cli.emit_json", 0.0) + own.get("cli.emit_plot_data", 0.0),
        "cli.bytes_out": res.get("bytes_out", 0),
    }
    for i in range(1, 13):
        out[f"acceptance.criterion_{i:02d}_s"] = sum(
            v for k, v in tot.items() if k.startswith(f"acceptance.criterion_{i}_"))
    rate_calls = sum(ctr.get(k, 0) for k in ("rates.converged", "rates.nonconverged", "rates.raised"))
    if "rate_ops" in res:   # oracle available: converged and within tolerance
        useful = res["useful_rate_ops"] / res["rate_ops"]
    else:
        useful = ctr.get("rates.converged", 0) / rate_calls if rate_calls else 0.0
    samples = ctr.get("simulate.samples", 0)
    one, two = res.get("subset_one_worker_s"), res.get("subset_two_worker_s")
    out.update({
        "models.cgf_calls": ctr.get("models.cgf_calls", 0),
        "models.phi_star_s": tot.get("models.phi_star", 0.0),
        "models.sample_s": tot.get("models.sample", 0.0),
        "lambda_surface.eval_calls": cnt.get("lambda_surface.lambda_eval", 0),
        "lambda_surface.grad_calls": cnt.get("lambda_surface.lambda_grad", 0),
        "lambda_surface.hessian_calls": cnt.get("lambda_surface.lambda_hessian", 0),
        "lambda_surface.self_s": layer("lambda_surface", own),
        "quadrature.calls": cnt.get("quadrature.adaptive_gauss_legendre", 0),
        "quadrature.self_s": layer("quadrature", own),
        "quadrature.errors": err.get("quadrature.adaptive_gauss_legendre:QuadratureError", 0),
        "rates.rate_ld_calls": cnt.get("rates.rate_ld", 0),
        **{f"rates.rate_ld_s.{kind}": ctr.get(f"rates.rate_ld_s.{kind}", 0.0)
           for kind in ("exponential", "inverse_gaussian", "noncentral_chi_squared", "gamma")},
        "rates.newton_iters": ctr.get("rates.newton_iters", 0),
        "rates.ascent_calls": ctr.get("rates.ascent_calls", 0),
        "rates.nonconverged": ctr.get("rates.nonconverged", 0),
        "rates.raised": ctr.get("rates.raised", 0),
        "rates.off_oracle": sum(1 for c in checks.items
                                if not c.passed and c.name.startswith(ORACLE_CHECKS)),
        "rates.useful_ratio": useful,
        "rates.marginal_I2_s": tot.get("rates.marginal_I2", 0.0),
        "rates.poisson_root_s": tot.get("rates.rate_ld_poisson", 0.0),
        "moderate.calls": layer("moderate", cnt),
        "moderate.self_s": layer("moderate", own),
        "conditional.kappa_star_s": tot.get("conditional.kappa_star", 0.0),
        "conditional.sampler_s": tot.get("conditional.sample_area_given_tau", 0.0),
        "simulate.draws": ctr.get("simulate.draws", 0),
        "simulate.blocks": ctr.get("simulate.blocks", 0),
        "simulate.map_blocks_s": tot.get("simulate.map_blocks", 0.0),
        "simulate.reduce_s": ctr.get("simulate.single_worker_reduce_s", 0.0),
        "simulate.parallel_speedup": one / two if one and two else 0.0,
        "simulate.ld_event_rate_s": tot.get("simulate.ld_event_rate", 0.0),
        "simulate.hit_ratio": ctr.get("simulate.hits", 0) / samples if samples else 0.0,
        "simulate.mdraws_per_s": res.get("mdraws_per_s", 0.0),
        "bench.fail_ratio": checks.failed / checks.attempted,
        "trace.wall_s": walls[1],
        "trace.overhead_s": walls[1] - walls[0],
        "trace.spans": agg["spans"] + agg["dropped"],
    })
    return out


def run_workload(args, spec: dict, tiny: bool = False) -> dict:
    """Run one workload as ``args`` say; prints the report and returns the result object."""
    check_sources()
    pkg = None if args.workload == "cli_session" else import_package()
    reps = max(1, round(args.seconds / REP_SECONDS[args.workload]))
    tag = f"{args.workload}-seed{args.seed}" + ("-tiny" if tiny else "")
    OUT.mkdir(parents=True, exist_ok=True)
    starts = 1 if tiny else harness.SETUP_STARTS
    setup = harness.setup_probes(traced=False, starts=starts)
    res, checks = run_once(args.workload, pkg, args.seed, reps, tiny=tiny)
    metrics = end_to_end(args.workload, res, setup)
    record = {"environment": harness.environment(args.workload, args.seed,
                                                 2 if args.workload == "tail_mc" else 1),
              "repetitions": reps, "operations": res["ops"],
              "latencies_s": res["latencies"], "operation_names": res.get("names"),
              "setup_samples_s": setup["samples"], "end_to_end": metrics,
              "mdraws_per_s": res.get("mdraws_per_s"),
              "fail_ratio": {"failed": checks.failed, "attempted": checks.attempted,
                             "by_check": checks.failures_by_kind()}}
    if args.trace:
        from tracer import Tracer, merge
        trace_dir = OUT / f"trace-{tag}"
        trace_dir.mkdir(parents=True, exist_ok=True)
        for old in trace_dir.glob("*"):
            old.unlink()
        probes = harness.setup_probes(traced=True, starts=starts)
        tracer = Tracer()
        try:
            if pkg is not None:  # cli_session traces inside each child, under cli_shim.py
                tracer.install()
            res_t, checks_t = run_once(args.workload, pkg, args.seed, reps, tracer=tracer,
                                       trace_dir=trace_dir, tiny=tiny)
        finally:
            tracer.uninstall()
        tracer.write_spans(trace_dir / "main.spans.jsonl", origin=args.workload)
        snaps = [tracer.snapshot()]
        for path in sorted(trace_dir.glob("*.agg.json")):
            with open(path) as fh:
                snaps.append(json.load(fh))
        checks_t.require("tracing_preserves_outputs", checks_t.fingerprint() == checks.fingerprint())
        layers = per_layer(merge(snaps), res_t, checks_t, probes, (res["wall_s"], res_t["wall_s"]))
        record["per_layer"] = layers
        record["spans_dir"] = str(trace_dir.relative_to(ROOT))
        checks = checks_t
    names = spec["per_layer" if args.trace else "end_to_end"]
    source = record["per_layer"] if args.trace else metrics
    missing = [m["name"] for m in names if m["name"] not in source]
    if missing:
        raise SystemExit(f"error: metrics not produced: {missing}")
    result = {"correct": checks.correct, "attempted": checks.attempted, "failed": checks.failed,
              "metrics": {m["name"]: {"value": source[m["name"]], "unit": m["unit"]}
                          for m in names}}
    record["result"] = result
    record["checks"] = [vars(c) for c in checks.items if not c.passed]
    with open(OUT / f"result-{tag}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    report(args.workload, record, spec)
    return result


def report(workload: str, record: dict, spec: dict) -> None:
    """Human-readable lines: every metric with unit and sample count."""
    env = record["environment"]
    print(f"# {workload}: seed {env['seed']}, {record['repetitions']} repetition(s), "
          f"{record['operations']} operations, workers {env['workers']}")
    print("# environment " + json.dumps(env, sort_keys=True))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units["op_p50_ms"] = "ms"
    n_ops = record["operations"]
    p90_s = record["end_to_end"]["op_p90_ms"] / 1e3
    beyond = sum(1 for lat in record["latencies_s"] if lat > p90_s)
    counts = {"setup_s": f"n={len(record['setup_samples_s'])} interpreter starts (median)",
              "wall_s": f"n={record['repetitions']} repetition(s) of the work list",
              "op_p50_ms": f"n={n_ops} operations",
              "op_p90_ms": f"n={n_ops} operations, {beyond} beyond p90",
              "peak_rss_mb": "n=1 process" if workload != "cli_session" else "max over children"}
    for name, value in record["end_to_end"].items():
        print(f"{workload:<13} {name:<26} {value:>14.6g} {units[name]:<16} {counts[name]}")
    if record["mdraws_per_s"] is not None:
        print(f"{workload:<13} {'mdraws_per_s':<26} {record['mdraws_per_s']:>14.6g} "
              f"{'1e6 draws/s':<16} n={n_ops} operations")
    fr = record["fail_ratio"]
    print(f"{workload:<13} {'fail_ratio':<26} {fr['failed'] / fr['attempted']:>14.6g} "
          f"{'failed/attempted':<16} {fr['failed']}/{fr['attempted']} checks; "
          + ", ".join(f"{k} {v}" for k, v in fr["by_check"].items()))
    for name, value in record.get("per_layer", {}).items():
        print(f"{workload:<13} {name:<26} {value:>14.6g} {units.get(name, ''):<16} traced run")


def run_all(args) -> dict:
    """Each workload in its own process; the last line sums the checks."""
    results = {}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(int(args.trace))]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"error: {workload} failed: {proc.stderr.strip()[-600:]}")
        print("\n".join(lines[:-1]), flush=True)
        results[workload] = json.loads(lines[-1])
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{name}": m for w, r in results.items() for name, m in r["metrics"].items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length; default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    result = run_all(args) if args.workload == "all" else run_workload(args, spec)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
