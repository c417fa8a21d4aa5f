"""Self-check of the benchmark itself, on tiny work lists (about 20 s).

Usage, from the root of a checkout:

    python3 perfbench/selfcheck.py

For each workload, untraced and traced, it asserts that the result object
carries every metric BENCHMARK.json names, with that unit.  It then perturbs
the exponential rate by 1e-3 and asserts that the checks count the perturbed
points as failures.  Exit code 0 when everything holds.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import sys

import run


def _tiny(workload: str, trace: int, spec: dict) -> dict:
    args = argparse.Namespace(workload=workload, seed=run.DEFAULT_SEED, seconds=1.0, trace=trace)
    with contextlib.redirect_stdout(io.StringIO()):
        return run.run_workload(args, spec, tiny=True)


def check_metrics(spec: dict) -> None:
    for workload in run.WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            result = _tiny(workload, trace, spec)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"], f"{workload}: a required check failed"
            assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
            expected = {m["name"]: m["unit"] for m in spec[kind]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == expected, f"{workload} trace={trace}: {set(got) ^ set(expected)}"
            for name, m in result["metrics"].items():
                assert isinstance(m["value"], (int, float)), (workload, name, m)
            print(f"ok  {workload:<13} trace={trace}  {len(got)} metrics, "
                  f"{result['failed']}/{result['attempted']} failed")


def check_perturbation() -> None:
    """A rate off by 1e-3 must show up as failed identity checks."""
    pkg = run.import_package()
    base, base_checks = run.run_once("rate_surface", pkg, run.DEFAULT_SEED, 1, tiny=True)
    original = pkg.rates.rate_ld

    def perturbed(model, z1, z2):
        res = original(model, z1, z2)
        if model.kind == "exponential":
            res.value += 1e-3
        return res

    pkg.rates.rate_ld = perturbed
    try:
        _, checks = run.run_once("rate_surface", pkg, run.DEFAULT_SEED, 1, tiny=True)
    finally:
        pkg.rates.rate_ld = original
    exp_points = sum(1 for name in base["names"] if name == "rate_ld[exponential]")
    before = base_checks.failures_by_kind().get("exp_identity.rate_ld", 0)
    after = checks.failures_by_kind().get("exp_identity.rate_ld", 0)
    assert after == exp_points > before, (before, after, exp_points)
    assert checks.failed > base_checks.failed
    print(f"ok  perturbation: exp_identity.rate_ld failures {before} -> {after} of {exp_points}, "
          f"failed {base_checks.failed} -> {checks.failed}")


def main() -> int:
    spec = run.load_spec()
    check_metrics(spec)
    check_perturbation()
    return 0


if __name__ == "__main__":
    sys.exit(main())
