"""Synthetic experiment campaigns and bound-violation statistics.

Each experiment draws M outcomes from the true model, reconstructs the
posterior with the (possibly miscalibrated) estimated visibility, and checks
every configured moment order against its generalized lower bound.  The
fraction Sigma_beta of experiments flagged per order is the bias diagnostic.

A moment is flagged through a statistical window of half-width
``sigma_window * sigma_beta(...)`` (scaled per ``window_scale``):

* ``below-bound``          Delta_beta sits more than a window below the bound.
* ``two-sided-bound``      Delta_beta differs from the bound by over a window.
* ``gaussian-consistency`` Delta_beta differs from its asymptotic-Gaussian
                           prediction by over a window.
* ``composite`` (default)  below-bound or gaussian-consistency.  For beta = 2
                           the Gaussian prediction equals the bound, so this
                           is exactly the two-sided test around the bound; for
                           other orders it additionally catches bounds that
                           the miscalibrated asymptotic posterior itself
                           violates.

Experiments derive their RNG streams from (seed, experiment index), so
campaigns are reproducible and embarrassingly parallel: `gcrb.cli` runs the
v_est values of a sweep, each ``dataclasses.replace(config, v_est=v)``, as
separate campaigns, shared between its own process and forked children, with
the same bytes as in one process.
A tally does not depend on v_est, so a campaign's tallies are drawn once per
process and shared by every v_est it evaluates (`campaign_tallies`); the CLI
draws them before it forks.  They go through the counts evaluator under
`analyze`'s `gcrb.bayes.report_counts` (`gcrb.bayes._evaluate_counts`; a
row's results do not depend on which rows share its block) and are flagged
by array comparison against the per-order bounds, windows and Gaussian
centres of the rule, all taken from one `generalized_fisher` call at
(phase_true, v_est).

`run_campaign` returns the experiments as one `ExperimentTable` of columns,
and `run_experiment` recomputes any single experiment, drawn from its own
stream, as a one-row table.  Statistics are expressions on the table, per
order of ``config.beta_list``: Sigma_beta is ``table.flags.mean(axis=0)``,
the violation counts ``table.flags.sum(axis=0)``; the infeasible experiments
are ``(~table.feasible).sum()`` and the estimator bias
``table.phi_hat[table.feasible].mean() - config.phase_true``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bayes import (
    DEFAULT_BETAS,
    DEFAULT_DOMAIN,
    PhaseDomain,
    _evaluate_counts,
    gaussian_abs_moment,
)
from .errors import UndefinedRatioError
from .fisher import conjugate_exponent, generalized_fisher, order_bound
from .model import ModelParams, is_real, is_whole, outcome_probs

VIOLATION_RULES = ("composite", "below-bound", "two-sided-bound", "gaussian-consistency")
WINDOW_SCALES = ("standard-error", "posterior-sd")


@dataclass(frozen=True)
class CampaignConfig:
    """Parameters of one Monte Carlo campaign."""

    phase_true: float
    v_true: float
    v_est: float
    shots: int = 2000
    n_experiments: int = 400
    beta_list: tuple[float, ...] = DEFAULT_BETAS
    domain: PhaseDomain = DEFAULT_DOMAIN
    seed: int = 0
    sigma_window: float = 3.0
    violation_rule: str = "composite"
    window_scale: str = "standard-error"

    def __post_init__(self) -> None:
        if not (is_real(self.phase_true) and math.isfinite(self.phase_true)):
            raise ValueError(f"phase_true must be a finite real, got {self.phase_true!r}")
        for name in ("v_true", "v_est"):
            v = getattr(self, name)
            if not (is_real(v) and math.isfinite(v) and 0.0 <= v <= 1.0):
                raise ValueError(f"{name} must lie in [0, 1], got {v!r}")
        for name in ("shots", "n_experiments"):
            if not (is_whole(getattr(self, name)) and getattr(self, name) >= 1):
                raise ValueError(f"{name} must be a positive integer")
        # every order needs a conjugate one: a finite real > 1
        conjugate_exponent(self.beta_list)
        if not (is_whole(self.seed) and 0 <= self.seed < 2 ** 64):
            raise ValueError("seed must be a 64-bit unsigned integer")
        if self.violation_rule not in VIOLATION_RULES:
            raise ValueError(f"violation_rule must be one of {VIOLATION_RULES}")
        if self.window_scale not in WINDOW_SCALES:
            raise ValueError(f"window_scale must be one of {WINDOW_SCALES}")
        if not (is_real(self.sigma_window) and math.isfinite(self.sigma_window)
                and self.sigma_window >= 0.0):
            raise ValueError("sigma_window must be >= 0")
        for name in ("phase_true", "v_true", "v_est", "sigma_window"):
            object.__setattr__(self, name, float(getattr(self, name)))
        for name in ("shots", "n_experiments", "seed"):
            object.__setattr__(self, name, int(getattr(self, name)))
        object.__setattr__(self, "beta_list", tuple(float(b) for b in self.beta_list))


@dataclass(frozen=True)
class ExperimentTable:
    """Synthetic experiments as columns, one row per experiment.

    An infeasible row, whose counts are impossible under v_est, has ``nan``
    phi_hat and deltas and every order flagged.
    """

    index: np.ndarray      # (E,) experiment indices
    counts: np.ndarray     # (E, 4) tallies
    feasible: np.ndarray   # (E,)
    phi_hat: np.ndarray    # (E,) posterior means
    deltas: np.ndarray     # (E, n_beta) absolute moments Delta_beta
    flags: np.ndarray      # (E, n_beta) violation flags


def experiment_rng(seed: int, experiment_index: int) -> np.random.Generator:
    """Deterministic per-experiment stream derived from (seed, index)."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(experiment_index,))
    return np.random.Generator(np.random.PCG64(ss))


def sample_tally(
    phase_true: float,
    v_true: float,
    shots: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """M i.i.d. categorical draws over the settings, returned as the (4,)
    integer array of per-setting counts."""
    if not (is_whole(shots) and shots >= 0):
        raise ValueError("shots must be a non-negative integer")
    return rng.multinomial(int(shots), outcome_probs(phase_true, ModelParams(v_true)))


def sigma_beta(beta, shots: int, fisher_info: float):
    """Standard deviation of |phi - phi_hat|**beta under the asymptotic Gaussian
    posterior of width sigma = 1/sqrt(M * F), for one order or an array of
    orders; a scalar order gives a float."""
    if not fisher_info > 0.0:
        raise ValueError("sigma_beta undefined for vanishing Fisher information")
    if not (is_whole(shots) and shots >= 1):
        raise ValueError("shots must be a positive integer")
    sigma = 1.0 / math.sqrt(shots * fisher_info)
    mean = gaussian_abs_moment(beta, sigma)
    variance = gaussian_abs_moment(2.0 * np.asarray(beta), sigma) - mean ** 2
    # clip the tiny negative excursions float cancellation can produce
    value = np.sqrt(np.maximum(variance, 0.0))
    return float(value) if value.ndim == 0 else value


def _reference(config: CampaignConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The bounds, windows and Gaussian centres of a campaign's flagging
    rule, one per order and the same for every experiment.

    They use the experimenter's model: f_alpha of every order and the Fisher
    information F = f_2 come from one model evaluation at (phase_true, v_est).
    Raises UndefinedRatioError when F vanishes there, which leaves the windows
    undefined.
    """
    betas = np.array(config.beta_list)
    infos = generalized_fisher(np.append(conjugate_exponent(betas), 2.0),
                               config.phase_true, ModelParams(config.v_est))
    info = float(infos[-1])
    if not info > 0.0:
        raise UndefinedRatioError(
            f"violation windows undefined: Fisher information vanishes at "
            f"phase_true={config.phase_true!r} under v_est={config.v_est!r}"
        )
    floors = order_bound(betas, infos[:-1], config.shots)
    windows = config.sigma_window * sigma_beta(betas, config.shots, info)
    if config.window_scale == "standard-error":
        windows /= math.sqrt(config.shots)
    centers = gaussian_abs_moment(betas, 1.0 / math.sqrt(config.shots * info))
    return floors, windows, centers


def _flag_violations(
    deltas: np.ndarray,
    floors: np.ndarray,
    windows: np.ndarray,
    centers: np.ndarray,
    rule: str,
) -> np.ndarray:
    """Violation flags of (E, n_beta) moments against the bounds, windows and
    Gaussian centres of the rule, which broadcast against the moments."""
    if rule == "two-sided-bound":
        return np.abs(deltas - floors) > windows
    below = deltas + windows < floors
    if rule == "below-bound":
        return below
    off_center = np.abs(deltas - centers) > windows
    if rule == "gaussian-consistency":
        return off_center
    return below | off_center


def _evaluate(config: CampaignConfig, index: np.ndarray, counts: np.ndarray) -> ExperimentTable:
    """Analyze the tallies of the experiments index with v_est and flag
    their violations."""
    rule = _reference(config)
    feasible, phi_hat, deltas = _evaluate_counts(counts, ModelParams(config.v_est),
                                                 config.domain, config.beta_list)
    # an infeasible row is maximal evidence of model mismatch: counts
    # impossible under v_est
    flags = _flag_violations(deltas, *rule, config.violation_rule) | ~feasible[:, np.newaxis]
    return ExperimentTable(index, counts, feasible, phi_hat, deltas, flags)


def _draw(seed: int, phase_true: float, v_true: float, shots: int, rows: range) -> np.ndarray:
    """(len(rows), 4) tallies of the given experiments, each drawn with v_true
    from its own (seed, index) stream."""
    probs = outcome_probs(phase_true, ModelParams(v_true))
    return np.array([experiment_rng(seed, i).multinomial(shots, probs) for i in rows])


@lru_cache(maxsize=8)
def _campaign_tallies(
    seed: int, phase_true: float, v_true: float, shots: int, n_experiments: int
) -> np.ndarray:
    """The read-only tallies of a whole campaign.  They do not depend on
    v_est, so a v_est sweep draws them once."""
    counts = _draw(seed, phase_true, v_true, shots, range(n_experiments))
    counts.setflags(write=False)
    return counts


def campaign_tallies(config: CampaignConfig) -> np.ndarray:
    """The read-only (n_experiments, 4) tallies of a campaign, drawn once per
    process for every v_est: `gcrb.cli` draws them before it forks its
    children, which then share them."""
    return _campaign_tallies(config.seed, config.phase_true, config.v_true,
                             config.shots, config.n_experiments)


def run_experiment(config: CampaignConfig, experiment_index: int) -> ExperimentTable:
    """Sample one experiment with v_true, analyze it with v_est, flag violations.

    Returns a one-row table, deterministic given (config.seed, experiment_index).
    """
    rows = range(experiment_index, experiment_index + 1)
    counts = _draw(config.seed, config.phase_true, config.v_true, config.shots, rows)
    return _evaluate(config, np.arange(rows.start, rows.stop), counts)


def run_campaign(config: CampaignConfig) -> ExperimentTable:
    """Every experiment of one campaign, in index order."""
    return _evaluate(config, np.arange(config.n_experiments), campaign_tallies(config))
