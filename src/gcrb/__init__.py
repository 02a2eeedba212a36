"""Generalized Cramer-Rao bound diagnostics for Bayesian phase estimation.

The package simulates (or ingests) four-setting two-photon interferometry
data, reconstructs grid posteriors, computes absolute central moments and
generalized Fisher informations, and measures how often each order-beta lower
bound is broken, which flags miscalibration bias in the sensor model.
`report_counts` analyzes a table of counts, one posterior per row, for the
library and for `gcrb analyze` alike.
"""

__version__ = "0.1.0"

from .bayes import (
    DEFAULT_DOMAIN,
    CountsReport,
    PhaseDomain,
    gaussian_abs_moment,
    kappa,
    report_counts,
)
from .errors import (
    CountsParseError,
    EstimationError,
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
    "CountsReport",
    "DEFAULT_DOMAIN",
    "EstimationError",
    "ExperimentTable",
    "MODEL_NAME",
    "ModelParams",
    "PhaseDomain",
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
    "report_counts",
    "run_campaign",
    "run_experiment",
    "sample_tally",
    "sigma_beta",
    "violation_fractions",
    "write_counts",
]
