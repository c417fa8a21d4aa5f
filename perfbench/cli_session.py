"""Workload ``cli_session``: one fresh CLI process per command of the README list.

Closed loop, one client: each command starts when the previous one exits.
Import and serialization dominate the short calls; the CSV dump drives the
sampler but writes every sample instead of reducing them; ``validate --quick``
is the only workload that runs ``acceptance``, the conditional sampler and
the brute-force simplex quadrature.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from harness import OUT, ROOT, Checks, child_env

CSV_ROWS = 100_000
CSV_HEADER = "x,tau,area,n_terms"
SHIM = Path(__file__).resolve().parent / "cli_shim.py"


def commands(seed: int, rep: int, dump: Path, tiny: bool = False) -> list[tuple]:
    """(name, argv, output kind) per invocation; Monte Carlo seeds come from (seed, rep)."""
    rng = np.random.default_rng([seed, rep, 3])
    event_seed, dump_seed = (str(int(s)) for s in rng.integers(2**31, size=2))
    cmds = [
        ("model", ["model", "--model", "inverse_gaussian:1"], "json"),
        ("lambda", ["lambda", "--model", "exponential:1", "--a1=-2:0.5:20", "--a2=-1:0.3:20"],
         "csv"),
        ("rate", ["rate", "--model", "exponential:1", "--z1", "2", "--z2", "1"], "json"),
        ("rate_grid", ["rate", "--model", "exponential:1", "--grid", "0.5:3:6;0.1:1.5:6"], "json"),
        ("rate_poisson", ["rate", "--model", "exponential:1", "--z1", "2", "--z2", "1.2",
                          "--method", "poisson"], "json"),
        ("moderate", ["moderate", "--model", "exponential:1", "--region", "supnorm>1",
                      "--x-grid", "100,1000"], "json"),
        ("simulate_event", ["simulate", "--model", "exponential:1", "--x", "50", "--n", "100000",
                            "--seed", event_seed, "--event", "z1>=1.5"], "json"),
        ("simulate_dump", ["simulate", "--model", "gamma:2,2", "--x", "10.5", "--n", str(CSV_ROWS),
                           "--seed", dump_seed, "--out", str(dump)], "csv_file"),
        ("conditional", ["conditional", "--x", "4", "--y", "2", "--beta", "0.5"], "json"),
        ("conditional_bf", ["conditional", "--x", "4", "--y", "2", "--beta", "0.5",
                            "--mode", "brute_force"], "json"),
        ("validate", ["validate", "--quick"], "validate"),
    ]
    if tiny:
        cmds = [c for c in cmds if c[0] in ("model", "rate", "simulate_dump")]
    return cmds


def run(seed: int, reps: int, checks: Checks, trace_dir: Path | None = None,
        tiny: bool = False) -> dict:
    """Run every command ``reps`` times; with ``trace_dir`` each child runs under the tracer shim."""
    out_dir = trace_dir or OUT
    out_dir.mkdir(parents=True, exist_ok=True)
    dump = out_dir / "samples.csv"
    latencies: list[float] = []
    bytes_out = 0
    for rep in range(reps):
        for i, (name, argv, kind) in enumerate(commands(seed, rep, dump, tiny)):
            if trace_dir is None:
                cmd = [sys.executable, "-m", "renewal_ldp.cli", *argv]
            else:
                prefix = trace_dir / f"cli-{rep:02d}-{i:02d}-{name}"
                cmd = [sys.executable, str(SHIM), str(prefix), *argv]
            if kind == "csv_file":
                dump.unlink(missing_ok=True)
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                                  text=True, timeout=170)
            latencies.append(time.perf_counter() - t0)
            bytes_out += len(proc.stdout.encode())
            if kind == "csv_file":
                bytes_out += _check_csv(dump, checks)
            _check(name, kind, proc, checks)
    return {"latencies": latencies, "wall_s": sum(latencies), "ops": len(latencies),
            "bytes_out": bytes_out}


def _check(name: str, kind: str, proc, checks: Checks) -> None:
    ok = checks.require(f"cli_exit_0[{name}]", proc.returncode == 0,
                        proc.stderr.strip()[-300:])
    if not ok:
        return
    if kind == "json":
        try:
            payload = json.loads(proc.stdout)
        except ValueError:
            payload = {}
        checks.require(f"cli_schema_v1[{name}]", payload.get("schema") == "v1")
        if name == "rate":
            value = payload.get("value")
            exact = 1.0 - math.log(2.0)
            checks.require("cli_rate_one_minus_log2",
                           isinstance(value, float) and abs(value - exact) <= 1e-12, f"{value!r}")
    elif kind == "validate":
        checks.require("cli_validate_12_of_12", "12/12 criteria passed" in proc.stdout)


def _check_csv(path: Path, checks: Checks) -> int:
    try:
        with open(path) as fh:
            header = fh.readline().strip()
            rows = sum(1 for line in fh if line.strip())
        size = path.stat().st_size
    except OSError:
        header, rows, size = "", 0, 0
    checks.require("cli_csv_shape", header == CSV_HEADER and rows == CSV_ROWS,
                   f"{header!r}, {rows} rows")
    return size
