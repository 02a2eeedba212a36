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
campaigns are reproducible and embarrassingly parallel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .bayes import (
    DEFAULT_DOMAIN,
    MomentSet,
    PhaseDomain,
    gaussian_abs_moment,
    moment_set,
    posterior,
)
from .errors import InfeasibleDataError
from .fisher import BoundValue, crb_bound, fisher
from .model import ModelParams, OutcomeTally, outcome_probs

VIOLATION_RULES = ("composite", "below-bound", "two-sided-bound", "gaussian-consistency")
WINDOW_SCALES = ("standard-error", "posterior-sd")

DEFAULT_BETAS = (1.5, 2.0, 3.0, 4.0)


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
        if not math.isfinite(self.phase_true):
            raise ValueError("phase_true must be finite")
        for name in ("v_true", "v_est"):
            v = getattr(self, name)
            if not (math.isfinite(v) and 0.0 <= v <= 1.0):
                raise ValueError(f"{name} must lie in [0, 1], got {v!r}")
        if self.shots != int(self.shots) or self.shots < 1:
            raise ValueError("shots must be a positive integer")
        if self.n_experiments != int(self.n_experiments) or self.n_experiments < 1:
            raise ValueError("n_experiments must be a positive integer")
        if any(not (math.isfinite(b) and b > 1.0) for b in self.beta_list):
            raise ValueError("every moment order must be a finite real > 1")
        if self.seed != int(self.seed) or not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must be a 64-bit unsigned integer")
        if self.violation_rule not in VIOLATION_RULES:
            raise ValueError(f"violation_rule must be one of {VIOLATION_RULES}")
        if self.window_scale not in WINDOW_SCALES:
            raise ValueError(f"window_scale must be one of {WINDOW_SCALES}")
        if not (math.isfinite(self.sigma_window) and self.sigma_window >= 0.0):
            raise ValueError("sigma_window must be >= 0")
        object.__setattr__(self, "beta_list", tuple(float(b) for b in self.beta_list))
        object.__setattr__(self, "shots", int(self.shots))
        object.__setattr__(self, "n_experiments", int(self.n_experiments))
        object.__setattr__(self, "seed", int(self.seed))

    def with_v_est(self, v_est: float) -> "CampaignConfig":
        return replace(self, v_est=v_est)


@dataclass(frozen=True)
class ExperimentRecord:
    """Outcome of one synthetic experiment."""

    index: int
    tally: OutcomeTally
    moments: MomentSet | None
    bounds: tuple[BoundValue, ...]
    violations: dict[float, bool]
    infeasible: bool = False


@dataclass(frozen=True)
class ViolationStats:
    """Violation counts and fractions Sigma_beta over one campaign."""

    n_experiments: int
    violation_counts: dict[float, int]
    infeasible_count: int = 0
    sigma_fracs: dict[float, float] = field(init=False)

    def __post_init__(self) -> None:
        fracs = {b: c / self.n_experiments for b, c in self.violation_counts.items()}
        object.__setattr__(self, "sigma_fracs", fracs)


def experiment_rng(seed: int, experiment_index: int) -> np.random.Generator:
    """Deterministic per-experiment stream derived from (seed, index)."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(experiment_index,))
    return np.random.Generator(np.random.PCG64(ss))


def sample_tally(
    phase_true: float,
    v_true: float,
    shots: int,
    rng: np.random.Generator,
) -> OutcomeTally:
    """M i.i.d. categorical draws over the settings, returned as a tally."""
    if shots != int(shots) or shots < 0:
        raise ValueError("shots must be a non-negative integer")
    probs = outcome_probs(phase_true, ModelParams(v_true))
    counts = rng.multinomial(int(shots), probs)
    return OutcomeTally(tuple(int(c) for c in counts))


def sigma_beta(beta: float, shots: int, fisher_info: float) -> float:
    """Standard deviation of |phi - phi_hat|**beta under the asymptotic Gaussian
    posterior of width sigma = 1/sqrt(M * F)."""
    if not fisher_info > 0.0:
        raise ValueError("sigma_beta undefined for vanishing Fisher information")
    if shots < 1:
        raise ValueError("shots must be a positive integer")
    sigma = 1.0 / math.sqrt(shots * fisher_info)
    variance = gaussian_abs_moment(2.0 * beta, sigma) - gaussian_abs_moment(beta, sigma) ** 2
    # clip the tiny negative excursions float cancellation can produce
    return math.sqrt(max(variance, 0.0))


def _flag_violation(delta: float, bound: float, center: float, window: float, rule: str) -> bool:
    if rule == "below-bound":
        return delta + window < bound
    if rule == "two-sided-bound":
        return abs(delta - bound) > window
    if rule == "gaussian-consistency":
        return abs(delta - center) > window
    return delta + window < bound or abs(delta - center) > window


@dataclass(frozen=True)
class _Reference:
    """Per-campaign constants of the flagging rule, one entry per order."""

    params: ModelParams
    bounds: tuple[BoundValue, ...]
    windows: tuple[float, ...]
    centers: tuple[float, ...]


@lru_cache(maxsize=64)
def _reference(config: CampaignConfig) -> _Reference:
    """Bounds, windows and Gaussian centres of a campaign.

    All use the experimenter's model, i.e. f_alpha evaluated at
    (phase_true, v_est); they are the same for every experiment.
    """
    params = ModelParams(config.v_est)
    bounds = tuple(crb_bound(b, config.phase_true, params, config.shots) for b in config.beta_list)
    info = fisher(config.phase_true, params)
    sigma_post = 1.0 / math.sqrt(config.shots * info) if info > 0.0 else math.inf
    windows, centers = [], []
    for b in config.beta_list:
        window = config.sigma_window * sigma_beta(b, config.shots, info)
        if config.window_scale == "standard-error":
            window /= math.sqrt(config.shots)
        windows.append(window)
        centers.append(gaussian_abs_moment(b, sigma_post))
    return _Reference(params, bounds, tuple(windows), tuple(centers))


def run_experiment(config: CampaignConfig, experiment_index: int) -> ExperimentRecord:
    """Sample one experiment with v_true, analyze it with v_est, flag violations.

    Deterministic given (config.seed, experiment_index).
    """
    rng = experiment_rng(config.seed, experiment_index)
    tally = sample_tally(config.phase_true, config.v_true, config.shots, rng)
    ref = _reference(config)
    try:
        post = posterior(tally, ref.params, config.domain)
    except InfeasibleDataError:
        # maximal evidence of model mismatch: counts impossible under v_est
        return ExperimentRecord(
            index=experiment_index,
            tally=tally,
            moments=None,
            bounds=ref.bounds,
            violations={b: True for b in config.beta_list},
            infeasible=True,
        )
    moments = moment_set(post, config.beta_list, config.shots)
    violations = {
        b: _flag_violation(moments.deltas[b], bv.bound_on_delta_beta, center, window,
                           config.violation_rule)
        for b, bv, window, center in zip(config.beta_list, ref.bounds, ref.windows, ref.centers)
    }
    return ExperimentRecord(
        index=experiment_index,
        tally=tally,
        moments=moments,
        bounds=ref.bounds,
        violations=violations,
    )


def run_campaign(config: CampaignConfig) -> list[ExperimentRecord]:
    """All experiment records for one campaign."""
    return [run_experiment(config, i) for i in range(config.n_experiments)]


def violation_fractions(config: CampaignConfig) -> ViolationStats:
    """Sigma_beta over n_experiments independent experiments."""
    counts = {b: 0 for b in config.beta_list}
    infeasible = 0
    for record in run_campaign(config):
        infeasible += record.infeasible
        for b, flagged in record.violations.items():
            counts[b] += flagged
    return ViolationStats(
        n_experiments=config.n_experiments,
        violation_counts=counts,
        infeasible_count=infeasible,
    )


def empirical_bias(records, phase_true: float) -> tuple[float, float]:
    """Mean of (phi_hat - phase_true) across experiments and its standard error.

    Infeasible records carry no estimate and are skipped.
    """
    estimates = np.array([r.moments.estimate for r in records if r.moments is not None])
    if estimates.size < 2:
        raise ValueError("empirical bias needs at least two feasible experiments")
    bias = float(estimates.mean() - phase_true)
    stderr = float(estimates.std(ddof=1) / math.sqrt(estimates.size))
    return bias, stderr
