"""Large and moderate deviations of first-passage times and areas of renewal processes.

The package evaluates the bivariate limit cumulant generating function of the
scaled passage pair (tau(x)/x, A(x)/x^2), its Legendre-Fenchel rate functions
(with a specialized solver for exponential holding times), the quadratic
moderate-deviation rates with exact finite-x moments, an exactly reproducible
Monte Carlo harness, and the conditional machinery of the area given the
passage time in the exponential case.

The public names load lazily (PEP 562): each submodule is imported when one of
its names is first read, so that importing the package, or one of its analytic
modules, loads no numpy.
"""

import importlib

# public name -> the submodule that defines it
_HOMES = {
    **dict.fromkeys(
        ("chaganty_equality", "conditional_mgf", "kappa", "kappa_d1", "kappa_star",
         "log_conditional_mgf", "nested_integral", "sample_area_given_tau"), "conditional"),
    **dict.fromkeys(
        ("CovarianceStructure", "RegularityReport", "hessian_origin", "in_lambda_domain",
         "lambda_eval", "lambda_grad", "poisson_lambda_closed_form", "regularity_report"),
        "lambda_surface"),
    **dict.fromkeys(
        ("INF", "BUILTIN_MODELS", "DomainSpec", "HoldingTimeModel", "LscCase", "RateEvaluation",
         "RootError", "builtin_models", "make_model", "parse_model_spec", "phi_star"), "models"),
    **dict.fromkeys(
        ("CORRELATION_LIMIT", "HalfPlane", "MarginalThreshold", "ModerateScaling", "MomentReport",
         "Rectangle", "RegionUnion", "confidence_intervals", "exact_moments", "md_event_rate",
         "passage_weights", "psi", "psi_star", "sup_norm_exceedance"), "moderate"),
    **dict.fromkeys(("QuadratureError", "adaptive_gauss_legendre"), "quadrature"),
    **dict.fromkeys(
        ("conditional_rate_J", "in_support_cone", "marginal_I1", "marginal_I2", "rate_ld",
         "rate_ld_poisson"), "rates"),
    **dict.fromkeys(
        ("PredicateEvent", "SimulationConfig", "TailEstimate", "block_rng", "empirical_clt",
         "empirical_md", "empirical_moments", "estimate_tail", "ld_event_rate", "map_blocks",
         "parse_event", "wilson_interval"), "simulate"),
}

__all__ = sorted(_HOMES)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
