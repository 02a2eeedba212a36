import math

import numpy as np
import pytest

import gcrb.montecarlo as mc
from gcrb.bayes import MomentSet, gaussian_abs_moment
from gcrb.errors import UndefinedRatioError
from gcrb.fisher import fisher
from gcrb.model import ModelParams, outcome_probs
from gcrb.montecarlo import (
    CampaignConfig,
    empirical_bias,
    experiment_rng,
    run_campaign,
    run_experiment,
    sample_tally,
    sigma_beta,
    violation_fractions,
)

PI = math.pi


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


def test_sample_tally_zero_shots():
    tally = sample_tally(0.3, 0.9, 0, experiment_rng(0, 0))
    assert tally.counts == (0, 0, 0, 0)


def test_sample_tally_never_draws_impossible_outcome():
    # at phi = 0 and v = 1 the third setting has probability zero
    tally = sample_tally(0.0, 1.0, 1000, experiment_rng(1, 0))
    assert tally.counts[2] == 0
    assert tally.total == 1000


def test_sample_tally_frequency_concentration():
    phi, v, shots = PI / 8.0, 0.95, 2000
    probs = outcome_probs(phi, ModelParams(v))
    tolerance = 4.0 * np.sqrt(probs * (1.0 - probs) / shots)
    good = 0
    for seed in range(1000):
        tally = sample_tally(phi, v, shots, experiment_rng(seed, 0))
        freqs = tally.as_array() / shots
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
    # degenerate limit: the window collapses as the posterior sharpens
    assert sigma_beta(2.0, 10 ** 12, info) < sigma_beta(2.0, shots, info) * 1e-8
    with pytest.raises(ValueError):
        sigma_beta(2.0, shots, 0.0)


def test_run_experiment_is_deterministic():
    config = small_config()
    first = run_experiment(config, 7)
    second = run_experiment(config, 7)
    assert first.tally == second.tally
    assert first.moments.deltas == second.moments.deltas
    assert first.violations == second.violations


def test_run_experiment_flags_are_recomputable():
    config = small_config(v_est=0.99)
    record = run_experiment(config, 3)
    info = fisher(config.phase_true, ModelParams(config.v_est))
    sigma_post = 1.0 / math.sqrt(config.shots * info)
    for b, bound in zip(config.beta_list, record.bounds):
        window = config.sigma_window * sigma_beta(b, config.shots, info) / math.sqrt(config.shots)
        center = gaussian_abs_moment(b, sigma_post)
        delta = record.moments.deltas[b]
        expected = delta + window < bound.bound_on_delta_beta or abs(delta - center) > window
        assert record.violations[b] == expected


def test_infeasible_experiment_counts_as_violation():
    # one row of a block gets counts so large that their likelihood underflows
    # to zero at every grid node; only that row is infeasible and flagged
    config = small_config(v_est=0.99)
    rows = slice(0, 8)
    clean = mc._run_block(config, rows)
    counts = clean.counts.astype(float)
    counts[3] = 1e308
    with np.errstate(over="ignore"):
        block = mc._evaluate(config, rows.start, counts)
    assert block.feasible.tolist() == [i != 3 for i in range(8)]
    assert block.flags[3].all()
    keep = block.feasible
    assert np.array_equal(block.estimates[keep], clean.estimates[keep])
    assert np.array_equal(block.deltas[keep], clean.deltas[keep])
    assert np.array_equal(block.flags[keep], clean.flags[keep])
    record = mc._records(config, block)[3]
    assert record.index == 3
    assert record.infeasible
    assert record.moments is None
    assert all(record.violations.values())


def test_campaign_blocks_match_single_experiments():
    # 37 experiments span several blocks and end in a partial one; each
    # record equals its recomputation from (seed, index) alone
    config = small_config(v_est=1.0, n_experiments=37, seed=8)
    records = run_campaign(config)
    assert [r.index for r in records] == list(range(37))
    flagged = [any(r.violations.values()) for r in records]
    assert any(flagged) and not all(flagged)
    for i, record in enumerate(records):
        alone = run_experiment(config, i)
        assert record.tally == alone.tally
        assert record.moments == alone.moments
        assert record.violations == alone.violations
        assert record.infeasible == alone.infeasible is False


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


def test_empirical_bias_of_identical_estimates():
    records = [
        mc.ExperimentRecord(
            index=i,
            tally=None,
            moments=MomentSet(estimate=0.4, deltas={}, shots=1),
            bounds=(),
            violations={},
        )
        for i in range(5)
    ]
    bias, stderr = empirical_bias(records, 0.4)
    assert bias == 0.0
    assert stderr == 0.0


def test_empirical_bias_requires_two_records():
    with pytest.raises(ValueError):
        empirical_bias([], 0.1)


def test_campaign_unbiased_at_true_visibility():
    config = small_config(n_experiments=100, seed=2)
    records = run_campaign(config)
    bias, stderr = empirical_bias(records, config.phase_true)
    assert abs(bias) < 3.0 * stderr + 1e-12


def test_campaign_biased_under_miscalibration():
    config = small_config(
        phase_true=3.0 * PI / 16.0, v_true=0.95, v_est=0.90, n_experiments=100, seed=2
    )
    records = run_campaign(config)
    bias, stderr = empirical_bias(records, config.phase_true)
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
