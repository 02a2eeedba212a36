"""Generalized Cramer-Rao bound diagnostics for Bayesian phase estimation.

The package simulates (or ingests) four-setting two-photon interferometry
data, reconstructs grid posteriors, computes absolute central moments and
generalized Fisher informations, and measures how often each order-beta lower
bound is broken, which flags miscalibration bias in the sensor model.
"""

__version__ = "0.1.0"

from .bayes import (
    DEFAULT_DOMAIN,
    PhaseDomain,
    PosteriorGrid,
    SaturationReport,
    gaussian_abs_moment,
    kappa,
    posterior,
    saturation_report,
)
from .errors import (
    CountsParseError,
    EstimationError,
    InfeasibleDataError,
    UndefinedRatioError,
)
from .fisher import (
    conjugate_exponent,
    fisher,
    generalized_fisher,
    order_bound,
)
from .ingest import (
    CountsRecord,
    fold_phase,
    parse_counts,
    write_counts,
)
from .model import (
    MODEL_NAME,
    ModelParams,
    OutcomeTally,
    outcome_dprobs,
    outcome_probs,
)
from .montecarlo import (
    CampaignConfig,
    ExperimentTable,
    ViolationStats,
    experiment_rng,
    run_campaign,
    run_experiment,
    sample_tally,
    sigma_beta,
    violation_fractions,
)

__all__ = [
    "__version__",
    "CampaignConfig",
    "CountsParseError",
    "CountsRecord",
    "DEFAULT_DOMAIN",
    "EstimationError",
    "ExperimentTable",
    "InfeasibleDataError",
    "MODEL_NAME",
    "ModelParams",
    "OutcomeTally",
    "PhaseDomain",
    "PosteriorGrid",
    "SaturationReport",
    "UndefinedRatioError",
    "ViolationStats",
    "conjugate_exponent",
    "experiment_rng",
    "fisher",
    "fold_phase",
    "gaussian_abs_moment",
    "generalized_fisher",
    "kappa",
    "order_bound",
    "outcome_dprobs",
    "outcome_probs",
    "parse_counts",
    "posterior",
    "run_campaign",
    "run_experiment",
    "sample_tally",
    "saturation_report",
    "sigma_beta",
    "violation_fractions",
    "write_counts",
]
