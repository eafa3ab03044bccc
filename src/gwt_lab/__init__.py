"""gwt-lab: stretched-exponential tail analysis and network prior simulation."""

from .bnn_sampler import (
    LayerPrior,
    NetworkConfig,
    UnitTrace,
    make_input,
    predicted_tail_parameter,
    run_prior_monte_carlo,
)
from .closure_lab import (
    ClosureReport,
    PDEstimate,
    TruncationReport,
    check_power_rule,
    check_product_rule,
    check_sum_rule,
    closure_tolerance,
    estimate_pd_constant,
    judge_tail,
    negative_control_truncation,
    weight_unit_product_samples,
)
from .errors import (
    ConfigError,
    DegenerateTailError,
    DomainError,
    GwtLabError,
    InsufficientDataError,
    OverflowAbortError,
    ParameterError,
)
from .rng import RngStream
from .tail_distributions import DistributionSpec, sample_iid
from .tail_estimation import (
    EmpiricalTail,
    FitWindow,
    TailEstimate,
    check_gwt_envelope,
    check_subweibull_envelope,
    empirical_survival,
    estimate_tail_index,
    loglog_points,
    refit_beta_from_points,
)

__version__ = "0.1.0"

__all__ = [
    "ClosureReport",
    "ConfigError",
    "DegenerateTailError",
    "DistributionSpec",
    "DomainError",
    "EmpiricalTail",
    "FitWindow",
    "GwtLabError",
    "InsufficientDataError",
    "LayerPrior",
    "NetworkConfig",
    "OverflowAbortError",
    "PDEstimate",
    "ParameterError",
    "RngStream",
    "TailEstimate",
    "TruncationReport",
    "UnitTrace",
    "check_gwt_envelope",
    "check_power_rule",
    "check_product_rule",
    "check_subweibull_envelope",
    "check_sum_rule",
    "closure_tolerance",
    "empirical_survival",
    "estimate_pd_constant",
    "estimate_tail_index",
    "judge_tail",
    "loglog_points",
    "make_input",
    "negative_control_truncation",
    "predicted_tail_parameter",
    "refit_beta_from_points",
    "run_prior_monte_carlo",
    "sample_iid",
    "weight_unit_product_samples",
]
