"""Large and moderate deviations of first-passage times and areas of renewal processes.

The package evaluates the bivariate limit cumulant generating function of the
scaled passage pair (tau(x)/x, A(x)/x^2), its Legendre-Fenchel rate functions
(with a specialized solver for exponential holding times), the quadratic
moderate-deviation rates with exact finite-x moments, an exactly reproducible
Monte Carlo harness, and the conditional machinery of the area given the
passage time in the exponential case.
"""

from .conditional import (
    chaganty_equality,
    conditional_mgf,
    kappa,
    kappa_d1,
    kappa_star,
    log_conditional_mgf,
    nested_integral,
    sample_area_given_tau,
)
from .lambda_surface import (
    CovarianceStructure,
    RegularityReport,
    hessian_origin,
    in_lambda_domain,
    lambda_eval,
    lambda_grad,
    poisson_lambda_closed_form,
    regularity_report,
)
from .models import (
    INF,
    BUILTIN_MODELS,
    DomainSpec,
    HoldingTimeModel,
    LscCase,
    RateEvaluation,
    RootError,
    builtin_models,
    make_model,
    parse_model_spec,
    phi_star,
)
from .moderate import (
    CORRELATION_LIMIT,
    HalfPlane,
    MarginalThreshold,
    ModerateScaling,
    MomentReport,
    Rectangle,
    RegionUnion,
    confidence_intervals,
    exact_moments,
    md_event_rate,
    passage_weights,
    psi,
    psi_star,
    sup_norm_exceedance,
)
from .quadrature import QuadratureError, adaptive_gauss_legendre
from .rates import (
    conditional_rate_J,
    in_support_cone,
    marginal_I1,
    marginal_I2,
    rate_ld,
    rate_ld_poisson,
)
from .simulate import (
    PredicateEvent,
    SimulationConfig,
    TailEstimate,
    block_rng,
    empirical_clt,
    empirical_md,
    empirical_moments,
    estimate_tail,
    ld_event_rate,
    map_blocks,
    parse_event,
    wilson_interval,
)

__version__ = "0.1.0"
