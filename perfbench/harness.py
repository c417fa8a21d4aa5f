"""Shared pieces of the benchmark: check ledger, timing statistics, set-up probes
and the environment record."""

from __future__ import annotations

import hashlib
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

SETUP_STARTS = 3   # fresh interpreters per run for setup_s (median reported)

_IMPORT_PROBE = (
    "import time\n"
    "t0 = time.monotonic()\n"
    "import renewal_ldp.cli\n"
    "print(repr(t0), repr(time.monotonic()))\n"
)


@dataclass
class Check:
    name: str
    passed: bool
    required: bool
    detail: str = ""


@dataclass
class Checks:
    """Ledger of checked outcomes behind ``attempted``, ``failed`` and ``correct``.

    ``expect`` records outcomes the package is known to get wrong at some
    inputs (non-convergence, typed errors, rates off their oracle, statistical
    checks): a failure is counted.  ``require`` records invariants that hold
    throughout at the commit that defined the benchmark (reproducibility, the
    CLI contract, exact identities): a failure is counted and also marks the
    run incorrect.
    """

    items: list[Check] = field(default_factory=list)

    def expect(self, name: str, passed: bool, detail: str = "") -> bool:
        self.items.append(Check(name, bool(passed), False, detail))
        return bool(passed)

    def require(self, name: str, passed: bool, detail: str = "") -> bool:
        self.items.append(Check(name, bool(passed), True, detail))
        return bool(passed)

    @property
    def attempted(self) -> int:
        return len(self.items)

    @property
    def failed(self) -> int:
        return sum(not c.passed for c in self.items)

    @property
    def correct(self) -> bool:
        return all(c.passed for c in self.items if c.required)

    def failures_by_kind(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for c in self.items:
            if not c.passed:
                key = c.name.split("[", 1)[0]
                out[key] = out.get(key, 0) + 1
        return dict(sorted(out.items()))

    def fingerprint(self) -> list[tuple]:
        return [(c.name, c.passed) for c in self.items]


def child_env() -> dict:
    """Environment for package subprocesses: the checkout's sources, default workers."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("RENEWAL_LDP_WORKERS", None)
    return env


def parse_importtime(stderr: str) -> float:
    """Seconds spent in the outermost ``scipy`` imports of an ``-X importtime`` log.

    Each outermost scipy entry's cumulative time covers its submodules and
    whatever they import; nested scipy entries are already inside it.
    """
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2]
        depth = (len(name) - len(name.lstrip(" "))) // 2
        rows.append((depth, name.strip(), int(parts[1])))
    # children are logged before their parent; walk backwards to see parents first
    total_us = 0
    scipy_depth = None
    for depth, name, cumulative in reversed(rows):
        if scipy_depth is not None and depth <= scipy_depth:
            scipy_depth = None
        if scipy_depth is None and (name == "scipy" or name.startswith("scipy.")):
            total_us += cumulative
            scipy_depth = depth
    return total_us / 1e6


def setup_probes(traced: bool, starts: int = SETUP_STARTS) -> dict:
    """Start fresh interpreters that import ``renewal_ldp.cli``; time launch to import end."""
    cmd = [sys.executable]
    if traced:
        cmd += ["-X", "importtime"]
    cmd += ["-c", _IMPORT_PROBE]
    setup, import_s, scipy_s = [], [], []
    for _ in range(starts):
        spawn = time.monotonic()  # CLOCK_MONOTONIC is shared by every process on the host
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"import probe failed: {proc.stderr.strip()[-400:]}")
        start, done = (float(v) for v in proc.stdout.split()[-2:])
        setup.append(done - spawn)
        import_s.append(done - start)
        if traced:
            scipy_s.append(parse_importtime(proc.stderr))
    out = {"setup_s": statistics.median(setup), "import_s": statistics.median(import_s),
           "samples": setup}
    if traced:
        out["import_scipy_s"] = statistics.median(scipy_s)
    return out


def peak_rss_mb(children: bool) -> float:
    import resource
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return ""


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "renewal_ldp").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except OSError:
        return None
    return proc.stdout.strip() or None


def environment(workload: str, seed: int, workers: int) -> dict:
    """Where and how the numbers were taken, so runs on different machines are not mixed."""
    import numpy
    import scipy

    cpu = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor())
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in range(8):
        level = _read(f"{base}/index{index}/level").strip()
        kind = _read(f"{base}/index{index}/type").strip()
        size = _read(f"{base}/index{index}/size").strip()
        if level and kind != "Instruction":
            caches[f"L{level}"] = size
    return {
        "commit": _commit(),
        "source_digest": _source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "l2_per_core": caches.get("L2"),
        "l3": caches.get("L3"),
        "workers": workers,
        "workload": workload,
        "seed": seed,
    }
