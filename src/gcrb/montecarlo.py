"""Synthetic experiment campaigns and bound-violation statistics.

Each experiment draws M outcomes from the true model, reconstructs the
posterior with the (possibly miscalibrated) estimated visibility, and checks
every configured moment order against its generalized lower bound.  The
fraction Sigma_beta of experiments flagged per order is the bias diagnostic.

A moment is flagged through a statistical window of half-width
``sigma_window`` times the standard deviation of |phi - phi_hat|**beta under
the asymptotic Gaussian posterior (over sqrt(M) per ``window_scale``):

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

Every tally is drawn by `draw_tallies`: row i holds M categorical draws at
its phase from the stream of (seed, indices[i]), a numpy PCG64 generator
seeded by ``SeedSequence(entropy=seed, spawn_key=(indices[i],))``, so a row
does not depend on which rows are drawn with it and any experiment can be
recomputed alone (`run_experiment`).  Nor does a tally depend on v_est:
`gcrb.cli` draws a campaign's tallies once (`campaign_tallies`) and runs the
`run_campaign` of each v_est of a sweep, shared between its own process and
forked children, with the same bytes as in one process.  A campaign's
tallies go through `gcrb.bayes.report_counts`, as a counts file's do in
`gcrb analyze`, and are flagged by array comparison against the per-order
bounds, windows and Gaussian centres of the rule, all taken from one
`generalized_fisher` call at (phase_true, v_est).

`run_campaign` returns the experiments as the `CountsReport` of their
tallies, one row per experiment in index order, with two more fields: the
(E, n_beta) ``flags`` and the per-order mask ``defined``.  Statistics are
array expressions on that table, per order of ``config.beta_list``:
Sigma_beta is ``table.flags.mean(axis=0)``, the violation counts
``table.flags.sum(axis=0)``, at the orders where ``table.defined`` holds.
It is false, and the flags compare against nan, at orders from about 85,
whose Gaussian moments leave float range, and at every order of a v_est
without Fisher information at phase_true (v_est = 0).  The infeasible
experiments are ``(~table.feasible).sum()`` and the estimator bias
``table.phi_hat[table.feasible].mean() - config.phase_true``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bayes import (
    DEFAULT_BETAS,
    DEFAULT_DOMAIN,
    MAX_GAUSSIAN_ORDER,
    TINY,
    CountsReport,
    PhaseDomain,
    gaussian_abs_moment,
    report_counts,
)
from .fisher import conjugate_exponent, generalized_fisher, order_bound
from .model import (MAX_COUNT, N_SETTINGS, ModelParams, check_orders, check_real, check_whole,
                    outcome_probs)

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
        for name, allowed in (("violation_rule", VIOLATION_RULES), ("window_scale", WINDOW_SCALES)):
            if getattr(self, name) not in allowed:
                raise ValueError(f"{name} must be one of {allowed}")
        for name, value in {
            "phase_true": check_real(self.phase_true, "phase_true", ndim=0),
            "v_true": ModelParams(self.v_true).visibility,
            "v_est": ModelParams(self.v_est).visibility,
            "shots": check_whole(self.shots, "shots", 1, MAX_COUNT, ndim=0),
            "n_experiments": check_whole(self.n_experiments, "n_experiments", 1, ndim=0),
            # every order needs a conjugate one, and its window twice the order
            "beta_list": tuple(check_orders(self.beta_list, bounded=True,
                                            hi=MAX_GAUSSIAN_ORDER / 2.0, ndim=1).tolist()),
            "seed": check_whole(self.seed, "seed", 0, 2 ** 64 - 1, ndim=0),
            "sigma_window": check_real(self.sigma_window, "sigma_window", 0, ndim=0),
        }.items():
            object.__setattr__(self, name, value)


def draw_tallies(phases, v_true: float, shots: int, seed: int, indices) -> np.ndarray:
    """(E, 4) int64 tallies of M = shots categorical draws over the settings
    with visibility v_true: row i is drawn at phases[i], or at one phase for
    every row, from the stream of (seed, indices[i]) (module notes).  Shots
    are whole numbers in [0, 2**53], seeds in [0, 2**64), indices >= 0."""
    indices = check_whole(indices, "experiment index", 0, ndim=1)
    phases = check_real(phases, "phase")
    if np.shape(phases) not in ((), indices.shape):
        raise ValueError(f"phases must be one phase or one per index, got {phases!r}")
    shots = check_whole(shots, "shots", 0, MAX_COUNT, ndim=0)
    seed = check_whole(seed, "seed", 0, 2 ** 64 - 1, ndim=0)
    probs = np.broadcast_to(outcome_probs(phases, ModelParams(v_true)).T,
                            (indices.size, N_SETTINGS))
    tallies = np.empty(probs.shape, dtype=np.int64)
    for row, (i, p) in enumerate(zip(indices.tolist(), probs)):
        stream = np.random.SeedSequence(entropy=seed, spawn_key=(i,))
        tallies[row] = np.random.Generator(np.random.PCG64(stream)).multinomial(shots, p)
    return tallies


def _reference(config: CampaignConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The bounds, windows and Gaussian centres of a campaign's flagging
    rule, one per order and the same for every experiment.

    They use the experimenter's model: f_alpha of every order and the Fisher
    information F = f_2 come from one model evaluation at (phase_true, v_est),
    the centres and windows from the moments of the Gaussian posterior of
    width 1/sqrt(M F).  An order whose bound, window's standard deviation or
    centre is below the smallest normal float or not finite, as that standard
    deviation is from order 85 at 2,000 shots, or whose f_alpha is, has nan
    in all three, as has every order where F vanishes (v_est = 0): Sigma_beta
    is undefined there.
    """
    betas = np.array(config.beta_list)
    infos = generalized_fisher(np.append(conjugate_exponent(betas), 2.0),
                               config.phase_true, ModelParams(config.v_est))
    info = float(infos[-1])
    # sigma 0, where F vanishes, takes every centre and window below TINY,
    # and an f_alpha out of float range (inf, or nan) is read as 0: bound inf
    sigma = 1.0 / math.sqrt(config.shots * info) if info > 0.0 else 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        floors = order_bound(betas, np.where(np.isfinite(infos[:-1]), infos[:-1], 0.0),
                             config.shots)
        centers, squares = np.split(gaussian_abs_moment(np.append(betas, 2.0 * betas), sigma), 2)
        # clip the tiny negative excursions float cancellation can produce
        sigmas = np.sqrt(np.maximum(squares - centers ** 2, 0.0))
    windows = config.sigma_window * sigmas
    if config.window_scale == "standard-error":
        windows /= math.sqrt(config.shots)
    values = np.array([floors, sigmas, centers])
    undefined = ~((values >= TINY) & (values < math.inf)).all(axis=0)
    for column in (floors, windows, centers):
        column[undefined] = math.nan
    return floors, windows, centers


def _flag_violations(deltas: np.ndarray, floors: np.ndarray, windows: np.ndarray,
                     centers: np.ndarray, rule: str) -> np.ndarray:
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


def _campaign(config: CampaignConfig, counts) -> CountsReport:
    """The report of the campaign's experiments with the given tallies,
    analyzed with v_est (`report_counts`), with their violation flags and
    the orders where Sigma_beta is defined."""
    floors, windows, centers = _reference(config)
    report = report_counts(counts, ModelParams(config.v_est), config.domain, config.beta_list)
    # an infeasible row is maximal evidence of model mismatch: counts
    # impossible under v_est
    flags = (_flag_violations(report.deltas, floors, windows, centers, config.violation_rule)
             | ~report.feasible[:, np.newaxis])
    return report._replace(flags=flags, defined=~np.isnan(floors))


def campaign_tallies(config: CampaignConfig) -> np.ndarray:
    """The (n_experiments, 4) tallies of a campaign, drawn at phase_true with
    v_true (`draw_tallies`).  They do not depend on v_est, so a v_est sweep
    draws them once and passes them to the `run_campaign` of each v_est."""
    return draw_tallies(config.phase_true, config.v_true, config.shots, config.seed,
                        np.arange(config.n_experiments))


def run_experiment(config: CampaignConfig, experiment_index: int) -> CountsReport:
    """Sample one experiment with v_true, analyze it with v_est, flag violations.

    Returns a one-row report, deterministic given (config.seed,
    experiment_index), whose tally is ``draw_tallies(phase_true, v_true,
    shots, seed, [experiment_index])``.  Raises ValueError unless the index
    is an integer in [0, n_experiments).
    """
    index = check_whole(experiment_index, "experiment_index", 0, config.n_experiments - 1, ndim=0)
    return _campaign(config, draw_tallies(config.phase_true, config.v_true, config.shots,
                                          config.seed, [index]))


def run_campaign(config: CampaignConfig, counts=None) -> CountsReport:
    """Every experiment of one campaign, in index order, analyzed from the
    given (n_experiments, 4) tallies, or from the campaign's own draw
    (`campaign_tallies`) when none are given.  Raises ValueError unless the
    given tallies pass `gcrb.model.check_counts`, which `report_counts`
    applies, have n_experiments rows and hold config.shots shots in every
    row, the M of the bounds."""
    table = _campaign(config, campaign_tallies(config) if counts is None else counts)
    # report_counts has checked them once: whole numbers up to 2**53, whose
    # int64 sums are exact
    if counts is not None and (
            table.feasible.size != config.n_experiments
            or (np.asarray(counts).astype(np.int64).sum(axis=1) != config.shots).any()):
        raise ValueError(f"counts must have {config.n_experiments} rows, "
                         f"each summing to shots={config.shots}")
    return table
