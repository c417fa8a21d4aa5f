"""The public surface of the package: adding or dropping a public name means editing this list."""

import dataclasses
import types

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
    # submodules are attributes too, but only once something imports them
    names = sorted(name for name, value in vars(renewal_ldp).items()
                   if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert names == PUBLIC_NAMES


def test_domain_spec_stores_its_case_once():
    # boundary_closed and integrable_at_boundary are derived from the case, not stored
    assert [f.name for f in dataclasses.fields(DomainSpec)] == ["boundary", "case"]
