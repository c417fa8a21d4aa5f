import csv
import json
import math
import os
import subprocess
import sys

import pytest

from renewal_ldp.cli import main


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


class TestModelCommand:
    def test_descriptor_json(self, capsys):
        code, out = run_cli(["model", "--model", "gamma:2,2"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == "v1"
        assert payload["descriptor"] == {"kind": "gamma", "params": {"shape": 2.0, "rate": 2.0}}
        assert payload["mean"] == pytest.approx(1.0)

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

    def test_worker_invariance_of_artifact(self, tmp_path):
        base = ["simulate", "--model", "exponential:1", "--x", "10", "--n", "9000",
                "--seed", "42"]
        out_a = tmp_path / "w1.csv"
        out_b = tmp_path / "w4.csv"
        assert main(base + ["--workers", "1", "--out", str(out_a)]) == 0
        assert main(base + ["--workers", "4", "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()


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
