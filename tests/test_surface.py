"""The public surface of the package: adding or dropping a public name means editing this list."""

import dataclasses
import os
import subprocess
import sys
import types

import pytest

import renewal_ldp
from renewal_ldp import DomainSpec

PUBLIC_NAMES = [
    "BUILTIN_MODELS", "CORRELATION_LIMIT", "CovarianceStructure", "DomainSpec", "HalfPlane",
    "HoldingTimeModel", "INF", "LscCase", "MarginalThreshold", "ModerateScaling", "MomentReport",
    "PredicateEvent", "QuadratureError", "RateEvaluation", "Rectangle", "RegionUnion",
    "RegularityReport", "RootError", "SimulationConfig", "TailEstimate", "adaptive_gauss_legendre",
    "block_rng",
    "builtin_models", "chaganty_equality", "conditional_mgf", "conditional_rate_J",
    "confidence_intervals", "empirical_clt", "empirical_md", "empirical_moments", "estimate_tail",
    "exact_moments", "hessian_origin", "in_lambda_domain", "in_support_cone", "kappa", "kappa_d1",
    "kappa_star", "lambda_eval", "lambda_grad", "ld_event_rate", "log_conditional_mgf", "make_model",
    "map_blocks", "marginal_I1", "marginal_I2", "md_event_rate", "nested_integral", "parse_event",
    "parse_model_spec", "passage_weights", "phi_star", "poisson_lambda_closed_form", "psi",
    "psi_star", "rate_ld", "rate_ld_poisson", "regularity_report", "sample_area_given_tau",
    "sup_norm_exceedance", "wilson_interval",
]


def test_public_names_are_pinned():
    # the names load lazily, so __all__ and dir() list them before vars() holds them; submodules
    # are attributes too, but only once something imports them
    assert renewal_ldp.__all__ == PUBLIC_NAMES
    listed = sorted(name for name in dir(renewal_ldp) if not name.startswith("_")
                    and not isinstance(getattr(renewal_ldp, name), types.ModuleType))
    assert listed == PUBLIC_NAMES
    assert not any(isinstance(getattr(renewal_ldp, name), types.ModuleType) for name in PUBLIC_NAMES)
    with pytest.raises(AttributeError, match="no_such_name"):
        renewal_ldp.no_such_name


def test_submodules_import_by_name_in_a_fresh_process():
    # the benchmark imports them so; a lazy name lookup must fall through to the submodule import
    proc = subprocess.run(
        [sys.executable, "-c",
         "from renewal_ldp import simulate, rates; print(simulate.__name__, rates.__name__)"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "renewal_ldp.simulate renewal_ldp.rates\n"


def test_domain_spec_stores_its_case_once():
    # boundary_closed and integrable_at_boundary are derived from the case, not stored
    assert [f.name for f in dataclasses.fields(DomainSpec)] == ["boundary", "case"]
