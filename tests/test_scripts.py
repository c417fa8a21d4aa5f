"""Each script in scripts/ runs end to end on a tiny budget and writes its documented output."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from renewal_ldp.models import make_model, phi_star

ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str, args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def test_g_curve_sweep_writes_three_curves(tmp_path):
    done = run_script("g_curve_sweep.py", ["--out-dir", str(tmp_path)], tmp_path)
    assert done.returncode == 0, done.stderr
    for z2 in ("0.25", "0.5", "0.75"):
        lines = (tmp_path / f"g_curve_z2_{z2}.csv").read_text().splitlines()
        assert lines[0] == "a2,g,h"
        assert len(lines) == 401
    assert "(negative)" in done.stdout and "(zero)" in done.stdout and "(positive)" in done.stdout


@pytest.mark.parametrize("name, seed, header", [
    ("tail_decay_experiment.py", "7", "x,hits,p_hat,empirical_rate,zero_hit_rate_bound,predicted_rate,exact_rate"),
    ("md_trend_experiment.py", "5", "x,a_x,hits,n_samples,mc_exponent,predicted_exponent,oracle_exponent"),
])
def test_experiment_writes_its_table(tmp_path, name, seed, header):
    out = tmp_path / "out.csv"
    done = run_script(name, ["--seed", seed, "--x-grid", "10,20", "--n", "500", "--out", str(out)], tmp_path)
    assert done.returncode == 0, done.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == header
    assert [row.split(",")[0] for row in lines[1:]] == ["10", "20"]


def test_rate_ld_cost_reports_the_grid(tmp_path):
    done = run_script("rate_ld_cost.py", ["--repeats", "1"], tmp_path)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report["calls"] == 200
    assert report["evaluations_per_call"] > report["iterations_per_call"] > 0
    assert report["evaluations_per_call"] <= 25  # the nested roots made 87.3 gradient evaluations a call
    assert len(report["ms_per_call"]) == 1
    # per kind, so that the closed-form inverse-Gaussian rate does not hide a change in the ascent: it
    # evaluates no Hessian, and its only iterations are phi_star's root on the grid's five midline points
    per_kind = report["per_kind"]
    assert sorted(per_kind) == sorted(["exponential", "gamma", "inverse_gaussian", "noncentral_chi_squared"])
    ig = make_model("inverse_gaussian", {"mu": 1.0})
    midline = sum(phi_star(ig, z1 * ig.mean).iterations for z1 in (0.6, 1.2, 2.0, 3.0, 5.0))
    assert per_kind["inverse_gaussian"]["evaluations_per_call"] == 0.0
    assert per_kind["inverse_gaussian"]["iterations_per_call"] == midline / 50
    for kind, row in per_kind.items():
        if kind != "inverse_gaussian":
            assert row["evaluations_per_call"] > row["iterations_per_call"] > 0
        assert row["ms_per_call_median"] > 0.0
    # the segment kernel at the tilts of the counting pass, of which the closed-form inverse-Gaussian rate has none
    kernel = report["kernel"]
    assert sorted(kernel) == sorted(per_kind)
    for kind, row in kernel.items():
        assert row["evaluations"] == round(per_kind[kind]["evaluations_per_call"] * 50)
        assert (row["us_per_call_median"] is None) == (kind == "inverse_gaussian")
        assert kind == "inverse_gaussian" or row["us_per_call_median"] > 0.0
    # the one-dimensional duals: the steps of each call and the median microseconds per call
    duals = report["duals"]
    assert sorted(duals) == ["kappa_star", "line_rate", "marginal_I2"]
    assert sorted(duals["marginal_I2"]) == sorted(duals["line_rate"]) == sorted(per_kind)
    for dual, counts in [("marginal_I2", 7), ("line_rate", 21), ("kappa_star", 4)]:
        for row in duals[dual].values():
            assert len(row["steps"]) == counts and row["steps_median"] > 0
            assert row["us_per_call_median"] > 0.0


def test_ray_search_cost_reports_each_model(tmp_path):
    done = run_script("ray_search_cost.py", ["--repeats", "1"], tmp_path)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert sorted(report) == sorted(["exponential", "gamma", "inverse_gaussian", "noncentral_chi_squared"])
    for row in report.values():
        assert row["events"] == 12
        assert row["evaluations_per_event"] > row["rate_ld_calls_per_event"] > 0
        assert row["benchmark_half_plane"]["evaluations"] <= 75
        assert len(row["ms_per_event"]) == 1
        assert len(row["ms_outside_rate_ld_per_event"]) == 1
        assert 0.0 < row["ms_outside_rate_ld_per_event_median"] < row["ms_per_event_median"]
