"""Golden corpus: the CLI's outputs, byte for byte, as recorded in tests/golden/.

Each command of the benchmark's CLI session, and the same commands on the other
models where they apply, runs in-process and its standard output must equal the
recorded file; the CSV sample dump is compared by its sha256 and size.  The corpus records the Python and numpy versions that wrote
it: the Monte Carlo outputs depend on numpy's generators, and float formatting
on the interpreter, so a different version fails here by name instead of
reporting a changed output.

Regenerate (only where an output is meant to change) with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import platform
from pathlib import Path

import numpy as np
import pytest

from renewal_ldp.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
# the models besides the session's exponential:1, at the example parameters of their table rows
OTHER_MODELS = {"gamma": "gamma:2,2", "inverse_gaussian": "inverse_gaussian:1",
                "noncentral_chi_squared": "noncentral_chi_squared:1,1"}

COMMANDS = {
    "model": ["model", "--model", "inverse_gaussian:1"],
    "lambda": ["lambda", "--model", "exponential:1", "--a1=-2:0.5:20", "--a2=-1:0.3:20"],
    "rate": ["rate", "--model", "exponential:1", "--z1", "2", "--z2", "1"],
    "rate_grid": ["rate", "--model", "exponential:1", "--grid", "0.5:3:6;0.1:1.5:6"],
    "rate_poisson": ["rate", "--model", "exponential:1", "--z1", "2", "--z2", "1.2",
                     "--method", "poisson"],
    "rate_gamma": ["rate", "--model", "gamma:2,2", "--z1", "2", "--z2", "0.7"],
    "rate_grid_gamma": ["rate", "--model", "gamma:2,2", "--grid", "0.5:3:6;0.1:1.5:6"],
    "rate_noncentral_chi_squared": ["rate", "--model", "noncentral_chi_squared:1,1", "--z1", "2",
                                    "--z2", "0.7"],
    "rate_grid_noncentral_chi_squared": ["rate", "--model", "noncentral_chi_squared:1,1", "--grid",
                                         "0.5:3:6;0.1:1.5:6"],
    "rate_inverse_gaussian": ["rate", "--model", "inverse_gaussian:1", "--z1", "2", "--z2", "0.7"],
    "rate_grid_inverse_gaussian": ["rate", "--model", "inverse_gaussian:1", "--grid", "0.5:3:6;0.1:1.5:6"],
    "moderate": ["moderate", "--model", "exponential:1", "--region", "supnorm>1",
                 "--x-grid", "100,1000"],
    "simulate_event": ["simulate", "--model", "exponential:1", "--x", "50", "--n", "100000",
                       "--seed", "7", "--event", "z1>=1.5"],
    "conditional": ["conditional", "--x", "4", "--y", "2", "--beta", "0.5"],
    "conditional_bf": ["conditional", "--x", "4", "--y", "2", "--beta", "0.5",
                       "--mode", "brute_force"],
    "validate": ["validate", "--quick"],
    # the commands above on the other models: every kind's descriptor, L on a 10 x 10 grid, the
    # moderate-deviation report and a small Monte Carlo event at 1.5 times the mean
    **{f"model_{kind}": ["model", "--model", spec]
       for kind, spec in {"exponential": "exponential:1", **OTHER_MODELS}.items() if kind != "inverse_gaussian"},
    **{f"lambda_{kind}": ["lambda", "--model", spec, "--a1=-2:0.5:10", "--a2=-1:0.3:10"]
       for kind, spec in OTHER_MODELS.items()},
    **{f"moderate_{kind}": ["moderate", "--model", spec, "--region", "supnorm>1", "--x-grid", "100,1000"]
       for kind, spec in OTHER_MODELS.items()},
    **{f"simulate_event_{kind}": ["simulate", "--model", spec, "--x", "50", "--n", "2000", "--seed", "7",
                                  "--event", f"z1>={level}"]
       for (kind, spec), level in zip(OTHER_MODELS.items(), ("1.5", "1.5", "3"))},
}
# the sample dump; its --out path is appended
CSV_COMMAND = ["simulate", "--model", "gamma:2,2", "--x", "10.5", "--n", "100000", "--seed", "11",
               "--out"]


def versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__}


def run_stdout(argv: list[str]) -> bytes:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    assert code == 0, argv
    return buf.getvalue().encode()


def csv_digest(path: Path) -> dict:
    assert main([*CSV_COMMAND, str(path)]) == 0
    data = path.read_bytes()
    return {"sha256": hashlib.sha256(data).hexdigest(), "size": len(data)}


def manifest() -> dict:
    with open(GOLDEN / "manifest.json") as fh:
        return json.load(fh)


def check_versions() -> None:
    recorded, running = manifest()["versions"], versions()
    mismatched = [f"{name} {running[name]} (corpus written with {recorded[name]})"
                  for name in recorded if running[name] != recorded[name]]
    assert not mismatched, "version mismatch: " + ", ".join(mismatched)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_stdout_matches_golden(name):
    check_versions()
    assert manifest()["commands"][name] == COMMANDS[name]
    assert run_stdout(COMMANDS[name]) == (GOLDEN / f"{name}.out").read_bytes()


def test_sample_dump_matches_golden(tmp_path):
    check_versions()
    recorded = manifest()["csv"]
    assert recorded["argv"] == CSV_COMMAND
    assert csv_digest(tmp_path / "samples.csv") == {"sha256": recorded["sha256"], "size": recorded["size"]}


def write_corpus(tmp: Path) -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in COMMANDS.items():
        (GOLDEN / f"{name}.out").write_bytes(run_stdout(argv))
    record = {"versions": versions(), "commands": COMMANDS,
              "csv": {"argv": CSV_COMMAND, **csv_digest(tmp / "samples.csv")}}
    with open(GOLDEN / "manifest.json", "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        write_corpus(Path(tmp))
