import dataclasses
import math

import numpy as np
import pytest

import gcrb.montecarlo as mc
from gcrb.bayes import gaussian_abs_moment
from gcrb.errors import UndefinedRatioError
from gcrb.fisher import conjugate_exponent, fisher, generalized_fisher, order_bound
from gcrb.model import ModelParams, outcome_probs
from gcrb.montecarlo import (
    CampaignConfig,
    ExperimentTable,
    experiment_rng,
    run_campaign,
    run_experiment,
    sample_tally,
    sigma_beta,
    violation_fractions,
)

PI = math.pi


def assert_row_identical(table, i, row):
    """Row i of table equals the one-row table row bit for bit, nan included."""
    for f in dataclasses.fields(ExperimentTable):
        got, want = getattr(table, f.name)[i], getattr(row, f.name)[0]
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (f.name, i)


def bias_and_stderr(table, phase_true):
    """Mean of (phi_hat - phase_true) over the feasible experiments and its
    standard error."""
    estimates = table.phi_hat[table.feasible]
    bias = float(estimates.mean() - phase_true)
    stderr = float(estimates.std(ddof=1) / math.sqrt(estimates.size))
    return bias, stderr


def small_config(**overrides):
    base = dict(
        phase_true=PI / 8.0,
        v_true=0.95,
        v_est=0.95,
        shots=2000,
        n_experiments=40,
        seed=5,
    )
    base.update(overrides)
    return CampaignConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(v_est=1.2)
    with pytest.raises(ValueError):
        small_config(shots=0)
    with pytest.raises(ValueError):
        small_config(beta_list=(0.5, 2.0))
    with pytest.raises(ValueError):
        small_config(seed=-1)
    with pytest.raises(ValueError):
        small_config(violation_rule="whatever")
    # a bool is not a number of shots, experiments or a seed, nor a phase or
    # a visibility; a string is not a phase
    for bad in (dict(shots=True), dict(n_experiments=True), dict(seed=True),
                dict(v_true=True), dict(v_est=True), dict(phase_true=True),
                dict(phase_true="0.3"), dict(shots=2000.5), dict(shots=math.inf),
                dict(sigma_window=True)):
        with pytest.raises(ValueError):
            small_config(**bad)
    # numpy scalars are accepted and stored as Python floats and ints
    config = small_config(phase_true=np.float32(0.5), v_true=np.float64(0.95), v_est=1,
                          shots=np.int64(2000), n_experiments=np.float64(40.0),
                          seed=np.uint64(5), sigma_window=np.int32(3))
    for name, kind in (("phase_true", float), ("v_true", float), ("v_est", float),
                       ("sigma_window", float), ("shots", int), ("n_experiments", int),
                       ("seed", int)):
        assert type(getattr(config, name)) is kind, name
    assert (config.shots, config.n_experiments, config.seed) == (2000, 40, 5)


def test_sample_tally_zero_shots():
    tally = sample_tally(0.3, 0.9, 0, experiment_rng(0, 0))
    assert tally.tolist() == [0, 0, 0, 0]
    assert tally.shape == (4,) and tally.dtype.kind == "i"
    assert sample_tally(0.3, 0.9, np.int64(0), experiment_rng(0, 0)).tolist() == [0, 0, 0, 0]
    # a bool is not a number of shots (True used to draw one)
    for bad in (True, False, 2.5, -1):
        with pytest.raises(ValueError):
            sample_tally(0.3, 0.9, bad, experiment_rng(0, 0))


def test_sample_tally_never_draws_impossible_outcome():
    # at phi = 0 and v = 1 the third setting has probability zero
    tally = sample_tally(0.0, 1.0, 1000, experiment_rng(1, 0))
    assert tally[2] == 0
    assert tally.sum() == 1000


def test_sample_tally_frequency_concentration():
    phi, v, shots = PI / 8.0, 0.95, 2000
    probs = outcome_probs(phi, ModelParams(v))
    tolerance = 4.0 * np.sqrt(probs * (1.0 - probs) / shots)
    good = 0
    for seed in range(1000):
        tally = sample_tally(phi, v, shots, experiment_rng(seed, 0))
        freqs = tally / shots
        if np.all(np.abs(freqs - probs) <= tolerance):
            good += 1
    assert good >= 990


def test_sigma_beta_closed_forms():
    shots, info = 2000, 1.805
    sigma = 1.0 / math.sqrt(shots * info)
    assert sigma_beta(2.0, shots, info) == pytest.approx(math.sqrt(2.0) * sigma ** 2, rel=1e-12)
    assert sigma_beta(3.0, shots, info) == pytest.approx(
        math.sqrt(15.0 - 8.0 / PI) * sigma ** 3, rel=1e-12
    )
    # orders broadcast
    assert sigma_beta(np.array([2.0, 3.0]), shots, info).tolist() == [
        sigma_beta(2.0, shots, info), sigma_beta(3.0, shots, info)]
    # degenerate limit: the window collapses as the posterior sharpens
    assert sigma_beta(2.0, 10 ** 12, info) < sigma_beta(2.0, shots, info) * 1e-8
    with pytest.raises(ValueError):
        sigma_beta(2.0, shots, 0.0)


def test_run_experiment_is_deterministic():
    config = small_config()
    first = run_experiment(config, 7)
    second = run_experiment(config, 7)
    assert first.index.tolist() == [7]
    assert_row_identical(first, 0, second)


def test_run_experiment_flags_are_recomputable():
    config = small_config(v_est=0.99)
    row = run_experiment(config, 3)
    params = ModelParams(config.v_est)
    info = fisher(config.phase_true, params)
    sigma_post = 1.0 / math.sqrt(config.shots * info)
    for k, b in enumerate(config.beta_list):
        f_alpha = generalized_fisher(conjugate_exponent(b), config.phase_true, params)
        bound = order_bound(b, f_alpha, config.shots)
        window = config.sigma_window * sigma_beta(b, config.shots, info) / math.sqrt(config.shots)
        center = gaussian_abs_moment(b, sigma_post)
        delta = row.deltas[0, k]
        expected = delta + window < bound or abs(delta - center) > window
        assert row.flags[0, k] == expected


# hand-built rule inputs, all binary fractions so that every comparison is
# exact: three orders with bounds, windows and Gaussian centres, the third
# centre below its bound, and three experiments, the last sitting exactly on
# its third window's edges
ORACLE_DELTAS = np.array([[0.75, 1.25, 0.625],
                          [1.0, 2.25, 1.0],
                          [1.25, 2.75, 0.75]])
ORACLE_FLOORS = np.array([1.0, 2.0, 1.0])
ORACLE_WINDOWS = np.array([0.125, 0.5, 0.25])
ORACLE_CENTERS = np.array([1.25, 2.0, 0.5])
ORACLE_FLAGS = {
    "below-bound": [[True, True, True],
                    [False, False, False],
                    [False, False, False]],
    "two-sided-bound": [[True, True, True],
                        [False, False, False],
                        [True, True, False]],
    "gaussian-consistency": [[True, True, False],
                             [True, False, True],
                             [False, True, False]],
    "composite": [[True, True, True],
                  [True, False, True],
                  [False, True, False]],
}


@pytest.mark.parametrize("rule", mc.VIOLATION_RULES)
def test_flag_violations_oracle(rule):
    flags = mc._flag_violations(ORACLE_DELTAS, ORACLE_FLOORS, ORACLE_WINDOWS,
                                ORACLE_CENTERS, rule)
    assert flags.tolist() == ORACLE_FLAGS[rule]


def test_posterior_sd_windows_are_standard_error_windows_times_sqrt_shots():
    config = small_config(v_est=0.99, beta_list=(1.5, 2.0, 3.0, 4.0))
    floors, windows, centers = mc._reference(config)
    sd_floors, sd_windows, sd_centers = mc._reference(
        dataclasses.replace(config, window_scale="posterior-sd"))
    assert sd_floors.tolist() == floors.tolist()
    assert sd_centers.tolist() == centers.tolist()
    assert sd_windows == pytest.approx(windows * math.sqrt(config.shots), rel=1e-15)


def test_infeasible_experiment_counts_as_violation():
    # one row of a block gets counts so large that their likelihood underflows
    # to zero at every grid node; only that row is infeasible and flagged
    config = small_config(v_est=0.99, n_experiments=8)
    clean = run_campaign(config)
    counts = clean.counts.astype(float)
    counts[3] = 1e308
    with np.errstate(over="ignore"):
        table = mc._evaluate(config, np.arange(8), counts)
    assert table.index.tolist() == list(range(8))
    assert table.feasible.tolist() == [i != 3 for i in range(8)]
    assert np.isnan(table.phi_hat[3])
    assert np.isnan(table.deltas[3]).all()
    assert table.flags[3].all()
    keep = table.feasible
    for name in ("phi_hat", "deltas", "flags"):
        got, want = getattr(table, name)[keep], getattr(clean, name)[keep]
        assert got.tobytes() == want.tobytes(), name


def test_campaign_blocks_match_single_experiments():
    # 37 experiments span several blocks and end in a partial one; each
    # row equals its recomputation from (seed, index) alone
    config = small_config(v_est=1.0, n_experiments=37, seed=8)
    table = run_campaign(config)
    assert table.index.tolist() == list(range(37))
    assert table.feasible.all()
    flagged = table.flags.any(axis=1)
    assert flagged.any() and not flagged.all()
    for i in range(37):
        assert_row_identical(table, i, run_experiment(config, i))


def test_sweep_shares_one_draw_of_the_tallies():
    # tallies do not depend on v_est: a sweep draws them once, and its counts
    # equal those of campaigns that draw their own
    base = small_config(n_experiments=30, seed=9)
    mc._campaign_tallies.cache_clear()
    shared = [violation_fractions(base.with_v_est(v)) for v in (0.95, 0.97, 0.99)]
    assert mc._campaign_tallies.cache_info().misses == 1
    for v, stats in zip((0.95, 0.97, 0.99), shared):
        mc._campaign_tallies.cache_clear()
        fresh = violation_fractions(base.with_v_est(v))
        assert fresh.violation_counts == stats.violation_counts
        assert fresh.infeasible_count == stats.infeasible_count


def test_zero_information_campaign_is_undefined():
    # v_est = 0 carries no Fisher information: the violation windows, and so
    # Sigma_beta, are undefined
    with pytest.raises(UndefinedRatioError):
        violation_fractions(small_config(v_est=0.0, n_experiments=3))


def test_violation_fractions_deterministic_and_exact():
    config = small_config(v_est=1.0, n_experiments=25)
    stats_a = violation_fractions(config)
    stats_b = violation_fractions(config)
    assert stats_a.sigma_fracs == stats_b.sigma_fracs
    assert stats_a.violation_counts == stats_b.violation_counts
    for b, frac in stats_a.sigma_fracs.items():
        count = stats_a.violation_counts[b]
        assert 0.0 <= frac <= 1.0
        assert frac == count / config.n_experiments


def test_campaign_unbiased_at_true_visibility():
    config = small_config(n_experiments=100, seed=2)
    bias, stderr = bias_and_stderr(run_campaign(config), config.phase_true)
    assert abs(bias) < 3.0 * stderr + 1e-12


def test_campaign_biased_under_miscalibration():
    config = small_config(
        phase_true=3.0 * PI / 16.0, v_true=0.95, v_est=0.90, n_experiments=100, seed=2
    )
    bias, stderr = bias_and_stderr(run_campaign(config), config.phase_true)
    assert abs(bias) > 3.0 * stderr


def test_violation_trend_with_overestimated_visibility():
    # averaged over seeds, Sigma_2 grows when the assumed visibility is too
    # high, and violations concentrate where the information is minimal
    for phase in (PI / 8.0, 3.0 * PI / 16.0, PI / 4.0):
        at_truth = 0.0
        at_one = 0.0
        for seed in range(5):
            cfg = small_config(phase_true=phase, n_experiments=150, seed=seed)
            at_truth += violation_fractions(cfg).sigma_fracs[2.0]
            at_one += violation_fractions(cfg.with_v_est(1.0)).sigma_fracs[2.0]
        assert at_one >= at_truth


def test_violations_prefer_low_information_phase():
    low_info = 0.0
    high_info = 0.0
    for seed in range(5):
        low_info += violation_fractions(
            small_config(phase_true=PI / 4.0, v_est=0.99, n_experiments=150, seed=seed)
        ).sigma_fracs[2.0]
        high_info += violation_fractions(
            small_config(phase_true=PI / 8.0, v_est=0.99, n_experiments=150, seed=seed)
        ).sigma_fracs[2.0]
    assert low_info >= high_info
