import csv
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from renewal_ldp import cli
from renewal_ldp import simulate as sim
from renewal_ldp.cli import main
from renewal_ldp.models import make_model


# the `model` JSON of the four built-in models, byte for byte
MODEL_JSON = {
    "exponential:1": """\
{
  "descriptor": {
    "kind": "exponential",
    "params": {
      "lam": 1.0
    }
  },
  "domain": {
    "boundary": 1.0,
    "boundary_closed": false,
    "case": "open_integrable",
    "integrable_at_boundary": true
  },
  "mean": 1.0,
  "sampler": "inverse-cdf exponential",
  "schema": "v1",
  "variance": 1.0
}
""",
    "inverse_gaussian:1": """\
{
  "descriptor": {
    "kind": "inverse_gaussian",
    "params": {
      "mu": 1.0
    }
  },
  "domain": {
    "boundary": 0.5,
    "boundary_closed": true,
    "case": "closed_boundary",
    "integrable_at_boundary": true
  },
  "mean": 1.0,
  "sampler": "Michael-Schucany-Haas transform (numpy wald)",
  "schema": "v1",
  "variance": 1.0
}
""",
    "noncentral_chi_squared:1,1": """\
{
  "descriptor": {
    "kind": "noncentral_chi_squared",
    "params": {
      "k": 1.0,
      "lam": 1.0
    }
  },
  "domain": {
    "boundary": 0.5,
    "boundary_closed": false,
    "case": "open_nonintegrable",
    "integrable_at_boundary": false
  },
  "mean": 2.0,
  "sampler": "Poisson-mixed chi-squared (numpy noncentral_chisquare)",
  "schema": "v1",
  "variance": 6.0
}
""",
    "gamma:2,2": """\
{
  "descriptor": {
    "kind": "gamma",
    "params": {
      "rate": 2.0,
      "shape": 2.0
    }
  },
  "domain": {
    "boundary": 2.0,
    "boundary_closed": false,
    "case": "open_integrable",
    "integrable_at_boundary": true
  },
  "mean": 1.0,
  "sampler": "Marsaglia-Tsang rejection (numpy standard_gamma)",
  "schema": "v1",
  "variance": 0.5
}
""",
}


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


# ends of a linspace grid: any finite double, subnormals and signed zeros included, and small
# round ones; counts from 0 up, with some large
GRID_ENDS = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                      st.integers(-50, 50).map(lambda k: k / 4.0))
GRID_COUNTS = st.one_of(st.integers(0, 40), st.integers(41, 200_000))


class TestModelCommand:
    def test_descriptor_json(self, capsys):
        code, out = run_cli(["model", "--model", "gamma:2,2"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == "v1"
        assert payload["descriptor"] == {"kind": "gamma", "params": {"shape": 2.0, "rate": 2.0}}
        assert payload["mean"] == pytest.approx(1.0)

    @pytest.mark.parametrize("spec", sorted(MODEL_JSON))
    def test_model_json_pinned(self, spec, capsys):
        assert run_cli(["model", "--model", spec], capsys) == (0, MODEL_JSON[spec])

    def test_unknown_model_usage_error(self, capsys):
        code = main(["model", "--model", "weibull:1"])
        assert code == 2

    @pytest.mark.parametrize("args", [
        ["model", "--model", "exponential:inf"],
        ["rate", "--model", "gamma:2,inf", "--z1", "1", "--z2", "0.4"],
        ["model", "--model", "inverse_gaussian:1e200"],
    ])
    def test_parameters_that_break_the_domain_usage_error(self, args, capsys):
        code, out = run_cli(args, capsys)
        assert code == 2
        assert out == ""


class TestLambdaCommand:
    def test_csv_columns(self, capsys):
        code, out = run_cli(
            ["lambda", "--model", "exponential:1", "--a1=-1,0", "--a2", "0.2,0.4"],
            capsys,
        )
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        assert list(rows[0].keys()) == ["a1", "a2", "value", "grad1", "grad2", "finite"]
        assert len(rows) == 4
        assert all(r["finite"] == "1" for r in rows)

    def test_infinite_point_flagged(self, capsys):
        code, out = run_cli(
            ["lambda", "--model", "exponential:1", "--a1", "2", "--a2", "0.5"], capsys
        )
        rows = list(csv.DictReader(out.splitlines()))
        assert rows[0]["finite"] == "0"
        assert rows[0]["value"] == "inf"

    def test_linspace_grid_syntax(self, capsys):
        code, out = run_cli(
            ["lambda", "--model", "exponential:1", "--a1=-1:0:5", "--a2", "0.1,0.2"],
            capsys,
        )
        rows = list(csv.DictReader(out.splitlines()))
        assert len(rows) == 10

    @settings(max_examples=300, deadline=None)
    @given(lo=GRID_ENDS, hi=st.one_of(st.none(), GRID_ENDS), count=GRID_COUNTS)
    @example(lo=-2.0, hi=0.5, count=20)
    @example(lo=0.5, hi=-2.0, count=20)
    @example(lo=5e-324, hi=1e-323, count=7)         # the step underflows to 0
    @example(lo=-1e-320, hi=-3e-320, count=1000)
    @example(lo=-1e308, hi=1e308, count=3)          # hi - lo overflows
    @example(lo=-0.0, hi=1.0, count=1)              # one point: lo + 0*(hi - lo) is +0
    @example(lo=0.1, hi=0.7, count=1_000_001)
    @example(lo=0.5, hi=3.0, count=0)               # refused
    def test_linspace_grid_is_numpys(self, lo, hi, count):
        # the lo:hi:count points equal numpy.linspace's, bit for bit; a count of 0, which numpy takes
        # for an empty grid, is refused
        hi = lo if hi is None else hi
        if count == 0:
            with pytest.raises(ValueError, match="a grid needs a count of at least 1, got 0"):
                cli._parse_grid(f"{lo!r}:{hi!r}:{count}")
            return
        ours = np.array(cli._parse_grid(f"{lo!r}:{hi!r}:{count}"), dtype=np.float64)
        with np.errstate(over="ignore", invalid="ignore"):
            theirs = np.linspace(lo, hi, count)
        assert ours.view(np.uint64).tolist() == theirs.view(np.uint64).tolist()

    @pytest.mark.parametrize("args, count", [
        (["lambda", "--model", "exponential:1", "--a1=0:1:0", "--a2", "0"], 0),
        (["rate", "--model", "exponential:1", "--grid", "0.5:3:0;0.1:1:2"], 0),
        (["moderate", "--model", "exponential:1", "--region", "supnorm>1", "--x-grid", "1:2:0"], 0),
        (["lambda", "--model", "exponential:1", "--a1=0:1:-2", "--a2", "0"], -2),
        (["rate", "--model", "exponential:1", "--grid", "1;0:1:-1"], -1),
    ], ids=["lambda-0", "rate-0", "moderate-0", "lambda--2", "rate--1"])
    def test_grid_count_below_one_exits_2(self, args, count, capsys):
        # one rule for every grid command: an empty grid is refused, as a negative count is
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: a grid needs a count of at least 1, got {count}\n"


class TestRateCommand:
    def test_json_payload(self, capsys):
        code, out = run_cli(
            ["rate", "--model", "exponential:1", "--z1", "2", "--z2", "1"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == "v1"
        assert payload["value"] == pytest.approx(1.0 - math.log(2.0), abs=1e-9)
        assert payload["converged"] is True
        assert isinstance(payload["iterations"], int)
        assert len(payload["tilt"]) == 2

    def test_poisson_method(self, capsys):
        code, out = run_cli(
            ["rate", "--model", "exponential:1", "--z1", "2", "--z2", "1.2",
             "--method", "poisson"],
            capsys,
        )
        payload = json.loads(out)
        assert payload["method"] == "poisson_g_root"
        code2, out2 = run_cli(
            ["rate", "--model", "exponential:1", "--z1", "2", "--z2", "1.2"], capsys
        )
        assert payload["value"] == pytest.approx(json.loads(out2)["value"], abs=1e-8)

    def test_poisson_method_requires_exponential(self, capsys):
        code = main(["rate", "--model", "gamma:2,2", "--z1", "2", "--z2", "1",
                     "--method", "poisson"])
        assert code == 2

    @pytest.mark.parametrize("args, message", [
        (["rate", "--model", "exponential:1"], "rate requires --z1 and --z2 (or --grid)"),
        (["rate", "--model", "gamma:2,2", "--z1", "2", "--z2", "1", "--method", "poisson"],
         "--method poisson requires an exponential model"),
        (["moderate", "--model", "exponential:1", "--region", "box", "--x-grid", "100"],
         "cannot parse region 'box'; expected e.g. 'supnorm>1'"),
        *[(["simulate", "--model", "exponential:1", f"--x={x}", "--n", "10", "--seed", "1"],
           "x must be positive") for x in ("0", "-2", "nan")],
        (["simulate", "--model", "exponential:1", "--x=inf", "--n", "10", "--seed", "1"],
         "x must be finite"),
        (["moderate", "--model", "exponential:1", "--region", "supnorm>1", "--x-grid", "inf"],
         "x must be finite"),
        (["moderate", "--model", "exponential:1", "--region", "supnorm>1", "--x-grid", "nan"],
         "x must be positive"),
        (["moderate", "--model", "exponential:1", "--region", "supnorm>nan", "--x-grid", "100"],
         "a level is NaN: (1.0, 0.0, nan)"),
        *[(["simulate", "--model", "exponential:1", "--x", "2", "--n", "10", "--seed", "1",
            f"--workers={w}"], "workers must be >= 1") for w in ("0", "-3")],
    ])
    def test_usage_errors_exit_2_with_one_line(self, args, message, capsys):
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_grid_mode(self, capsys):
        code, out = run_cli(
            ["rate", "--model", "exponential:1", "--grid", "1,2;0.4,0.6"], capsys
        )
        payload = json.loads(out)
        assert len(payload["rows"]) == 4


class TestModerateCommand:
    def test_payload(self, capsys):
        code, out = run_cli(
            ["moderate", "--model", "exponential:1", "--region", "supnorm>1",
             "--x-grid", "100,1000"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["predicted_exponent"] == pytest.approx(-0.5)
        assert payload["scaling_valid"] is True
        assert len(payload["moments"]) == 2
        assert payload["moments"][0]["mean_tau"] == pytest.approx(100.0)


class TestSimulateCommand:
    def test_requires_seed(self):
        code = main(["simulate", "--model", "exponential:1", "--x", "10", "--n", "100"])
        assert code == 2  # argparse usage error

    def test_sample_dump_columns(self, capsys):
        code, out = run_cli(
            ["simulate", "--model", "exponential:1", "--x", "10", "--n", "32",
             "--seed", "1"],
            capsys,
        )
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        assert list(rows[0].keys()) == ["x", "tau", "area", "n_terms"]
        assert len(rows) == 32
        assert all(r["n_terms"] == "10" for r in rows)

    def test_event_estimate(self, capsys):
        code, out = run_cli(
            ["simulate", "--model", "exponential:1", "--x", "20", "--n", "20000",
             "--seed", "7", "--event", "z1>=1.5"],
            capsys,
        )
        payload = json.loads(out)
        assert payload["schema"] == "v1"
        assert payload["ci_low"] <= payload["exact_probability"] <= payload["ci_high"]

    def test_byte_identical_artifacts(self, tmp_path, capsys):
        args = ["simulate", "--model", "exponential:1", "--x", "10", "--n", "5000",
                "--seed", "42"]
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_dump_is_the_samples_block_by_block(self, tmp_path, capsys):
        # the header once, then every sample of each block in order, with 17 significant digits
        args = ["simulate", "--model", "gamma:2,2", "--x", "10.5", "--n", "5000", "--seed", "3"]
        path = tmp_path / "s.csv"
        assert main(args + ["--out", str(path)]) == 0
        config = sim.SimulationConfig(model=make_model("gamma", {"shape": 2.0, "rate": 2.0}), x=10.5,
                                      n_samples=5000, seed=3)
        lines = ["x,tau,area,n_terms"] + [
            f"10.5,{tau:.17g},{area:.17g},11"
            for taus, areas in sim.map_blocks(config, lambda t, a: (t, a))
            for tau, area in zip(taus.tolist(), areas.tolist())]
        assert len(lines) == 5001
        assert path.read_text() == "\n".join(lines) + "\n"
        capsys.readouterr()
        assert main(args) == 0
        assert capsys.readouterr().out == path.read_text()

    def test_worker_invariance_of_artifact(self, tmp_path):
        base = ["simulate", "--model", "exponential:1", "--x", "10", "--n", "9000",
                "--seed", "42"]
        out_a = tmp_path / "w1.csv"
        out_b = tmp_path / "w4.csv"
        assert main(base + ["--workers", "1", "--out", str(out_a)]) == 0
        assert main(base + ["--workers", "4", "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_workers_default_is_the_shared_one(self, monkeypatch, capsys):
        args = ["simulate", "--model", "exponential:1", "--x", "2", "--n", "10", "--seed", "1",
                "--event", "z1>=1.5"]
        seen = []  # the worker count of each run, which starts no thread
        monkeypatch.setattr(sim, "estimate_tail", lambda config, event: seen.append(config.workers) or {})
        monkeypatch.setattr(cli, "asdict", dict)
        monkeypatch.setenv("RENEWAL_LDP_WORKERS", "3")
        assert sim.default_workers() == 3
        assert main(args) == 0 and seen == [3]
        monkeypatch.delenv("RENEWAL_LDP_WORKERS")
        assert sim.default_workers() == len(os.sched_getaffinity(0))
        assert main(args) == 0 and seen == [3, sim.default_workers()]
        assert main(args + ["--workers", "5"]) == 0 and seen[-1] == 5
        monkeypatch.setenv("RENEWAL_LDP_WORKERS", "abc")
        assert main(["rate", "--model", "exponential:1", "--z1", "2", "--z2", "1"]) == 0
        assert main(args) == 2
        assert capsys.readouterr().err.startswith("error: invalid literal for int()")


class TestConditionalCommand:
    def test_payload(self, capsys):
        code, out = run_cli(
            ["conditional", "--x", "3", "--y", "2", "--beta", "0.5"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["conditional_mgf"] == pytest.approx(
            math.exp(payload["log_conditional_mgf"]), rel=1e-12
        )
        assert "nested_integral" in payload

    def test_brute_force_mode(self, capsys):
        code, out = run_cli(
            ["conditional", "--x", "3", "--y", "1", "--beta", "0.5",
             "--mode", "brute_force"],
            capsys,
        )
        a = json.loads(out)["nested_integral"]
        code, out = run_cli(
            ["conditional", "--x", "3", "--y", "1", "--beta", "0.5"], capsys
        )
        b = json.loads(out)["nested_integral"]
        assert a == pytest.approx(b, rel=1e-10)


class TestJsonRoundTrip:
    def test_all_json_outputs_reparse(self, capsys):
        for args in (
            ["model", "--model", "exponential:1"],
            ["rate", "--model", "exponential:1", "--z1", "2", "--z2", "1"],
            ["moderate", "--model", "exponential:1", "--region", "supnorm>1",
             "--x-grid", "100"],
            ["conditional", "--x", "2", "--y", "1", "--beta", "0.3"],
        ):
            code, out = run_cli(args, capsys)
            assert code == 0
            payload = json.loads(out)
            assert payload["schema"] == "v1"
            assert json.loads(json.dumps(payload)) == payload


class TestEntryPoint:
    def test_console_script_runs(self):
        # the child imports the package from wherever this process found it
        proc = subprocess.run(
            [sys.executable, "-m", "renewal_ldp.cli", "model", "--model",
             "exponential:1"],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["schema"] == "v1"

    def test_import_leaves_scipy_unloaded(self):
        # the package owns its root solver and imports scipy.special where it is first used;
        # scipy.optimize and scipy.special cost about 0.7 s of import on every command
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, renewal_ldp.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_analytic_commands_leave_numpy_unloaded(self):
        # numpy is imported where it is first used (sampling, validate, brute-force quadrature);
        # the import and every closed-form or scalar-Newton command run without it
        commands = [
            ["model", "--model", "inverse_gaussian:1"],
            ["lambda", "--model", "exponential:1", "--a1=-2:0.5:20", "--a2=-1:0.3:20"],
            ["rate", "--model", "gamma:2,2", "--z1", "2", "--z2", "0.7"],
            ["rate", "--model", "exponential:1", "--grid", "0.5:3:6;0.1:1.5:6"],
            ["rate", "--model", "exponential:1", "--z1", "2", "--z2", "1.2", "--method", "poisson"],
            ["moderate", "--model", "exponential:1", "--region", "supnorm>1", "--x-grid", "100,1000"],
            ["conditional", "--x", "4", "--y", "2", "--beta", "0.5"],
        ]
        script = (
            "import contextlib, io, sys, renewal_ldp.cli as cli\n"
            "loaded = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'numpy')\n"
            "print('import', loaded())\n"
            f"for argv in {commands!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        code = cli.main(argv)\n"
            "    print(argv[0], code, loaded())\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["import []"] + [f"{argv[0]} 0 []" for argv in commands]
