"""Generalized Cramer-Rao bound diagnostics for Bayesian phase estimation.

The package simulates (or ingests) four-setting two-photon interferometry
data, reconstructs phase posteriors, computes absolute central moments and
generalized Fisher informations, and measures how often each order-beta lower
bound is broken, which flags miscalibration bias in the sensor model.
`report_counts` analyzes a table of counts, one posterior per row, for the
library, for `gcrb analyze` and for the campaigns of `run_campaign` alike,
and its `CountsReport` is the one row table of each.  A number that is
undefined there is nan, and a campaign's ``defined`` mask is false at each
order whose Sigma_beta is undefined; no exception marks either.
"""

__version__ = "0.1.0"

from .bayes import (
    DEFAULT_DOMAIN,
    CountsReport,
    PhaseDomain,
    gaussian_abs_moment,
    report_counts,
)
from .errors import (
    CountsParseError,
    EstimationError,
)
from .fisher import (
    conjugate_exponent,
    generalized_fisher,
    order_bound,
)
from .ingest import (
    CountsTable,
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
    campaign_tallies,
    draw_tallies,
    run_campaign,
    run_experiment,
)

__all__ = [
    "__version__",
    "CampaignConfig",
    "CountsParseError",
    "CountsReport",
    "CountsTable",
    "DEFAULT_DOMAIN",
    "EstimationError",
    "MODEL_NAME",
    "ModelParams",
    "PhaseDomain",
    "campaign_tallies",
    "conjugate_exponent",
    "draw_tallies",
    "fold_phase",
    "gaussian_abs_moment",
    "generalized_fisher",
    "order_bound",
    "outcome_dprobs",
    "outcome_probs",
    "parse_counts",
    "report_counts",
    "run_campaign",
    "run_experiment",
    "write_counts",
]
